/* Polymorphism must not quantify shared storage. keep()'s static local is
 * one cell for every call, so the const pointer stored by the first call is
 * the one the second call returns and the caller writes through: the
 * program is rejected under poly exactly as under --mono. */

int *keep(int *p) {
  static int *s;
  int *old = s;
  s = p;
  return old;
}

void caller(const int *c, int *x) {
  keep(c);
  *keep(x) = 1;
}
