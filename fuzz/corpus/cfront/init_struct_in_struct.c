struct inner { int *slot; int tag; };
struct outer { struct inner in; const char *name; };

int seed = 3;
struct outer global_outer = { { &seed, 1 }, "g" };

void touch(int *p) {
  struct outer o = { { p, 2 }, "local" };
  *o.in.slot = o.in.tag;
}
