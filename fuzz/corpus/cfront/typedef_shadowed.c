typedef int T;
typedef char *S;
int f(int T) { return T + 1; }
int g(T x) {
  int S = x;
  { T T = S; return T; }
}
int h(void) { T y = 2; S p = 0; return y + (p != 0); }
