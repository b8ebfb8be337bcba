/* Polymorphism must not quantify a library function's interface. get() is
 * only declared, so its interface is translated inside w(), the first body
 * that calls it -- but every caller shares that one interface. w() stores
 * c's pointee into the cell get() returns, a() passes w() a const pointer,
 * and use() writes through the same cell: the program is rejected under
 * poly exactly as under --mono. */

int **get(void);

void w(int *c) { *get() = c; }

void a(const int *k) { w(k); }

void use(void) { **get() = 1; }
