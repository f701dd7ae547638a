// Flow-aware rules for tsvpt_lint, built on the symbol/scope resolver:
//
//   lock-order     every RAII guard acquisition (lock_guard / scoped_lock /
//                  unique_lock / shared_lock) is tracked per function; the
//                  mutexes are resolved to class-qualified names and folded
//                  into one global acquisition-order graph across all TUs.
//                  Cycles in that graph (potential deadlock) and locks held
//                  across registered blocking calls are diagnosed.
//   must-consume   calls to functions returning a registered status type
//                  (DecodeStatus, BatchStatus, ...) or named in the bool-
//                  status registry must be assigned, compared, returned or
//                  otherwise consumed; a bare `f(...);` statement is an
//                  error.
//   wire-layout    `// layout:` / `// field:` directives pair offset
//                  constants with byte sizes; each declared layout must be
//                  internally consistent (fields start at 0, contiguous,
//                  non-overlapping, summing to the declared header size,
//                  CRC span inside the header and not covering itself).
//   hot-path       a function under a `// hot:` contract may not allocate,
//                  throw, lock, or call IO (or the subset named in
//                  `// hot(cats):`), enforced transitively one call level
//                  deep through the cross-TU function index.  Allocation
//                  is `new`, the malloc family, make_unique/make_shared,
//                  container growth (push_back, resize, ...) and a local
//                  std::vector or std::string built with a size, contents
//                  or an initializer.
//
// FlowAnalyzer mirrors the Analyzer's two-phase shape: add_file records
// borrowed views, finish runs the cross-TU passes.  All diagnostics flow
// through the normal suppression machinery in Analyzer::finish.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/config.hpp"
#include "lint/lexer.hpp"
#include "lint/symbols.hpp"

namespace tsvpt::lint {

class FlowAnalyzer {
 public:
  struct Rules {
    bool lock_order = true;
    bool must_consume = true;
    bool wire_layout = true;
    bool hot_path = true;
  };

  FlowAnalyzer(const LayeringConfig* config, Rules rules);

  /// All three views are borrowed and must outlive finish().
  void add_file(const std::string* path, const LexResult* lex,
                const FileSymbols* symbols);

  void finish(Stats* stats, std::vector<Diagnostic>* out);

 private:
  struct FileView {
    const std::string* path;
    const LexResult* lex;
    const FileSymbols* symbols;
  };

  const LayeringConfig* config_;
  Rules rules_;
  std::vector<FileView> files_;
  SymbolIndex index_;
};

}  // namespace tsvpt::lint
