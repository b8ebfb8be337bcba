/* A struct initializer stores its elements into the record's fields, just
 * as assignments to the fields do. Every struct P shares one field cell
 * (Section 4.2), so the initializer puts x's const pointee into the cell
 * that f() writes through: the program is rejected, as it is when the
 * initializer is written as the assignment `p.a = &x;`. */

struct P {
  int *a;
};

const int x = 1;

struct P p = { &x };

void f(void) { *p.a = 2; }
