/* Polymorphism must not quantify shared storage. Every struct S shares one
 * field cell (Section 4.2), so set() stores c's const pointee into the same
 * cell use() writes through: the program is rejected under poly exactly as
 * under --mono. */

struct S {
  int *f;
};

void set(struct S *s, int *p) { s->f = p; }

void use(struct S *s) { *s->f = 1; }

void caller(const int *c, struct S *s) {
  set(s, c);
  use(s);
}
