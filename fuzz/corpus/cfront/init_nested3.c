int grid[2][2][2] = {{{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}};

int corner(void) {
  int local[1][1][1] = {{{9}}};
  return grid[1][1][1] + local[0][0][0];
}
