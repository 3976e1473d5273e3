#ifndef THOR_TOOLS_FLAGS_H_
#define THOR_TOOLS_FLAGS_H_

// Command-line flag parsing for thorcli, thord and thor-router: an unknown
// flag or a flag missing its value is a usage error, never ignored.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace thor::tools {

/// The value of the flag at argv[*i]; advances *i past it. A flag given
/// without a value is a usage error: exits 2.
inline const char* FlagValue(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", argv[*i]);
    std::exit(2);
  }
  return argv[++*i];
}

inline bool IsFlag(const char* arg) { return arg[0] == '-'; }

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// Where a flag goes: a switch sets a bool and a repeatable flag appends
/// to a list; any other flag takes the next argument (through FlagValue),
/// converted as atoi/atof/atoll do (`uint64_t*` also takes `size_t*`).
using FlagTarget = std::variant<bool*, std::string*, std::vector<std::string>*,
                                int*, double*, uint64_t*>;

/// Parses argv[0..argc): each of `flags` stores into its target and every
/// other argument is positional. False — the caller exits with its usage
/// text — on an unknown flag, or on a positional argument when the command
/// takes none, so a typo never silently runs the defaults or is read as a
/// file.
inline bool ParseArgs(
    int argc, char** argv,
    std::initializer_list<std::pair<std::string_view, FlagTarget>> flags,
    std::vector<std::string>* positional = nullptr) {
  for (int i = 0; i < argc; ++i) {
    const auto flag = std::find_if(flags.begin(), flags.end(), [&](auto& f) {
      return f.first == argv[i];
    });
    if (flag == flags.end()) {
      if (IsFlag(argv[i]) || positional == nullptr) return false;
      positional->push_back(argv[i]);
      continue;
    }
    std::visit(
        Overloaded{
            [](bool* on) { *on = true; },
            [&](std::string* text) { *text = FlagValue(argc, argv, &i); },
            [&](std::vector<std::string>* list) {
              list->push_back(FlagValue(argc, argv, &i));
            },
            [&](int* n) { *n = std::atoi(FlagValue(argc, argv, &i)); },
            [&](double* x) { *x = std::atof(FlagValue(argc, argv, &i)); },
            [&](uint64_t* n) {
              *n = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, &i)));
            }},
        flag->second);
  }
  return true;
}

}  // namespace thor::tools

#endif  // THOR_TOOLS_FLAGS_H_
