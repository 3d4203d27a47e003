// expect: getenv
// An environment variable steering the library: a run's behaviour would
// depend on a knob no caller passed and no report records. Make it an
// option instead.
#include <cstdlib>
#include <cstring>

namespace netupd {
bool verboseSearch() {
  const char *E = std::getenv("NETUPD_VERBOSE");
  return E && std::strcmp(E, "0") != 0;
}
} // namespace netupd
