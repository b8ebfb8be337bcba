int f(void) { return a(1); }
int g(void) { return b(2); }
int h(void) { return c(3); }
