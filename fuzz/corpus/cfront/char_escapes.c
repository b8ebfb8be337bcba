char a = '\x41';
char b = '\012';
char c = '\a';
char d = '\x';
char e = '\0777';
char f = '\xfffffffff';
char g = '\?';
int h(void) { return '\b' + '\f' + '\v' + '\\' + '\'' + '\"' + '\q'; }
