/* Character constants with hex, octal and control escapes. count() only
 * reads through s, so its parameter may be declared const; fill() writes
 * through d, so its parameter must not be. */

int count(char *s, char c) {
  int n = 0;
  while (*s != '\0') {
    if (*s == c || *s == '\x41' || *s == '\012' || *s == '\a' ||
        *s == '\b' || *s == '\f' || *s == '\v' || *s == '\?')
      n = n + 1;
    s = s + 1;
  }
  return n;
}

void fill(char *d, int n) {
  while (n > 0) {
    *d = '\101';
    d = d + 1;
    n = n - 1;
  }
  *d = '\x0';
}

int bells(char *msg) {
  fill(msg, 3);
  return count(msg, '\7');
}
