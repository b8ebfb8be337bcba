int int_;
int If;
double doubles;
int _;
struct structure { int structure; } s_;
int do1(int while_, int for2) { int returned = while_ + for2; return returned; }
int sizeof_(int unsigned_) { return unsigned_ + sizeof(int); }
