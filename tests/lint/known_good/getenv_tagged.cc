// Clean: the getenv rule matches calls in code, not prose — a comment
// naming getenv("NETUPD_X") or a string literal "getenv(" stays inert —
// and a deliberate read carries its tag.
#include <cstdlib>
#include <string>

namespace netupd {
// Doc comment: options replace getenv("NETUPD_VERBOSE")-style knobs.
std::string hint() { return "do not call getenv( here"; }

const char *homeDir() {
  return std::getenv("HOME"); // lint: getenv-ok — sanctioned in this sample
}
} // namespace netupd
