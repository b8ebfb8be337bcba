struct entry { const char *key; int *value; };

int hits;
struct entry table[2] = { { "a", &hits }, { "b", 0 } };

int lookup(const char *k, int *out) {
  struct entry local[2] = { { k, out }, { "z", 0 } };
  return *local[0].value + *table[0].value;
}
