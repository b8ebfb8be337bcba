typedef int (*cmp_fn)(const void *a, const void *b);
int apply(int (*cb)(int (*inner)(char *s, int n), char *t), char *u);
void sort(void *base, int n, int (*cmp)(const void *x, const void *y), cmp_fn fallback);
int (*pick(int which, int (*dflt)(int)))(int);
int run(int (*cb)(int (*inner)(char *s, int n), char *t), char *u) {
  return apply(cb, u);
}
