/* An instance variable met by two flows is not a don't-care. `*fresh() = x`
 * stores the const x into the cell fresh() returns, and that cell's contents
 * are also the assignment's value, which flows into y and is written
 * through. Most of fresh()'s bound variables occur once in its scheme body
 * and in no canned constraint; eliminating such variables as don't-cares
 * would cut this path and accept the program. It must stay rejected under
 * poly exactly as under --mono. */

char **fresh(void) { char **r = 0; return r; }
void use(const char *x) { char *y; y = (*fresh() = x); *y = 'a'; }
