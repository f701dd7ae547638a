#include "lint/flow.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <optional>
#include <set>
#include <utility>

namespace tsvpt::lint {

namespace {

// ---------------------------------------------------------------------------
// Token helpers (flow.cpp keeps its own copies; the anonymous namespaces in
// analyzer.cpp / symbols.cpp are deliberately not exported).

bool is_punct(const Token& tok, std::string_view text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

bool is_ident(const Token& tok, std::string_view text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                          std::string_view open_text,
                          std::string_view close_text) {
  int depth = 0;
  std::size_t i = open;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) ++depth;
    if (is_punct(toks[i], close_text) && --depth == 0) return i;
  }
  return toks.size() - 1;
}

/// Walk backwards from a closing bracket to its matching opener.
std::size_t skip_balanced_back(const std::vector<Token>& toks,
                               std::size_t close, std::string_view open_text,
                               std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], close_text)) ++depth;
    if (is_punct(toks[i], open_text) && --depth == 0) return i;
  }
  return 0;
}

const std::set<std::string>& expr_keywords() {
  static const std::set<std::string> kKeywords{
      "return", "co_return", "co_yield", "case", "else", "do", "throw"};
  return kKeywords;
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kKeywords{"if", "while", "for", "switch"};
  return kKeywords;
}

/// True when the identifier at `i` (known to be followed by '(') reads as a
/// call expression rather than a declaration like `BatchStatus consume(`.
bool call_context(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;  // file scope: a declaration
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdentifier) {
    return expr_keywords().count(prev.text) != 0;
  }
  // `Foo* f(` / `Foo& f(` / `vector<T> f(` declare a function of that name.
  if (is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&")) {
    return false;
  }
  return true;
}

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kGuards{"lock_guard", "scoped_lock",
                                             "unique_lock", "shared_lock"};
  return kGuards;
}

const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> kAlloc{
      "malloc",      "calloc",      "realloc",   "aligned_alloc",
      "strdup",      "make_unique", "make_shared",
      // Container growth is allocation too; hot code must pre-size.
      "push_back",   "emplace_back", "resize",   "reserve",
      "append",      "insert"};
  return kAlloc;
}

const std::set<std::string>& non_callee_keywords() {
  static const std::set<std::string> kKeywords{
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "alignas",       "decltype",
      "noexcept", "new",      "delete",   "static_assert", "throw",
      "else",     "do",       "case",     "co_return",     "co_yield",
      "co_await", "typeid",   "assert",   "defined",       "requires"};
  return kKeywords;
}

// ---------------------------------------------------------------------------
// lock-order

struct EdgeSite {
  const std::string* file = nullptr;
  int line = 0;
  std::string function;
};

struct HeldLock {
  std::string key;
  std::string var;  // guard variable name ("" for unnamed temporaries)
  int depth = 0;    // brace depth at acquisition (for scope release)
  int line = 0;
};

/// Resolve a guard's mutex argument (token range [a, b)) to a stable,
/// cross-TU key.  `mu_` inside a member of class C -> "C::mu_"; `x.mu` with
/// a unique declaring class -> "Class::mu"; `accessor()` -> "accessor()";
/// anything else falls back to the literal spelling of the chain.
std::string resolve_mutex_key(const std::vector<Token>& toks, std::size_t a,
                              std::size_t b, const std::string& class_name,
                              const SymbolIndex& index) {
  if (a >= b) return "";
  const auto& owners = index.mutex_owners();

  // `sink_mutex()` / `detail::mu()` — key on the accessor: one accessor, one
  // mutex, whatever TU calls it.
  if (is_punct(toks[b - 1], ")")) {
    const std::size_t open = skip_balanced_back(toks, b - 1, "(", ")");
    if (open > a) {
      std::string name;
      for (std::size_t k = a; k < open; ++k) name += toks[k].text;
      if (!name.empty()) return name + "()";
    }
    return "";
  }
  if (toks[b - 1].kind != TokKind::kIdentifier) {
    std::string literal;
    for (std::size_t k = a; k < b; ++k) literal += toks[k].text;
    return literal;
  }
  const std::string& leaf = toks[b - 1].text;

  const auto member_key = [&](const std::string& name) -> std::string {
    const auto it = owners.find(name);
    if (it != owners.end()) {
      if (!class_name.empty() && it->second.count(class_name) != 0) {
        return class_name + "::" + name;
      }
      if (it->second.size() == 1) return *it->second.begin() + "::" + name;
    }
    return "";
  };

  if (b - a == 1) {
    // Bare name: a member of the enclosing class, or a unique member.
    const std::string resolved = member_key(leaf);
    return resolved.empty() ? leaf : resolved;
  }
  const Token& sep = toks[b - 2];
  if (is_punct(sep, ".") || is_punct(sep, "->")) {
    // `this->mu_` is the enclosing class; `obj.mu` resolves when exactly one
    // class declares a mutex member of that name.
    if (b - a == 3 && is_ident(toks[a], "this")) {
      if (!class_name.empty()) return class_name + "::" + leaf;
    }
    const std::string resolved = member_key(leaf);
    if (!resolved.empty()) return resolved;
  }
  // Qualified (`detail::g_mu`) or unresolvable chain: literal spelling.
  std::string literal;
  for (std::size_t k = a; k < b; ++k) literal += toks[k].text;
  return literal;
}

// ---------------------------------------------------------------------------
// wire-layout

struct LayoutField {
  std::string name;
  long offset = 0;
  long size = 0;
  const std::string* file = nullptr;
  int line = 0;
};

struct Layout {
  std::string name;
  const std::string* file = nullptr;
  int line = 0;
  long size = -1;
  long crc_lo = -1;
  long crc_hi = -1;
  bool has_crc = false;
  std::vector<LayoutField> fields;
};

std::size_t directive_payload_start(const std::string& text) {
  std::size_t start = 0;
  while (start < text.size() &&
         (text[start] == '/' || text[start] == '*' || text[start] == ' ' ||
          text[start] == '\t')) {
    ++start;
  }
  return start;
}

std::vector<std::string> split_words(std::string_view s) {
  std::vector<std::string> words;
  std::size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
    std::size_t end = pos;
    while (end < s.size() && s[end] != ' ' && s[end] != '\t') ++end;
    if (end > pos) words.emplace_back(s.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

bool parse_long(std::string_view s, long* out) {
  if (s.empty()) return false;
  const std::string buf{s};
  char* end = nullptr;
  const long v = std::strtol(buf.c_str(), &end, 0);
  if (end == buf.c_str()) return false;
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// hot-path

struct CatHit {
  bool hit = false;
  int line = 0;
  std::string what;
};

struct HotSummary {
  CatHit alloc;
  CatHit thr;
  CatHit lock;
  CatHit io;

  [[nodiscard]] const CatHit* by_category(char cat) const {
    switch (cat) {
      case 'a': return &alloc;
      case 't': return &thr;
      case 'l': return &lock;
      default:  return &io;
    }
  }
};

/// The name a local `std::vector<T>` or `std::string` declaration at `i`
/// declares when it builds the container with a size, contents or an
/// initializer, which heap-allocates like growth does; "" for anything
/// else: a reference or pointer, a default-constructed empty container
/// (`v;`, `v{}`, `v = {}`), a nested name (`std::string::npos`), a range-for
/// variable or no declaration at all.
std::string sized_container_local(const std::vector<Token>& toks,
                                  std::size_t i, std::size_t end) {
  std::size_t k = i + 1;
  if (toks[i].text == "vector") {
    if (k > end || !is_punct(toks[k], "<")) return "";
    int depth = 0;
    for (; k <= end; ++k) {
      if (is_punct(toks[k], "<")) ++depth;
      if (is_punct(toks[k], ">") && --depth == 0) break;
    }
    ++k;  // past the closing '>'
  }
  if (k + 2 > end || toks[k].kind != TokKind::kIdentifier) return "";
  const Token& init = toks[k + 1];
  const Token& first = toks[k + 2];
  if (is_punct(init, "(")) {
    if (is_punct(first, ")")) return "";
  } else if (is_punct(init, "{")) {
    if (is_punct(first, "}")) return "";
  } else if (is_punct(init, "=")) {
    if (is_punct(first, "{") && k + 3 <= end && is_punct(toks[k + 3], "}")) {
      return "";
    }
  } else {
    return "";
  }
  return toks[k].text;
}

HotSummary summarize_function(const std::vector<Token>& toks,
                              const FunctionDef& fn,
                              const LayeringConfig& config) {
  HotSummary s;
  const std::size_t end = std::min(fn.body_end, toks.size() - 1);
  for (std::size_t i = fn.body_begin; i <= end; ++i) {
    const Token& tok = toks[i];
    if (tok.in_directive || tok.kind != TokKind::kIdentifier) continue;
    const std::string& t = tok.text;
    const auto record = [&](CatHit* cat, const std::string& what) {
      if (!cat->hit) {
        cat->hit = true;
        cat->line = tok.line;
        cat->what = what;
      }
    };
    if (t == "new") {
      if (i > 0 && is_ident(toks[i - 1], "operator")) continue;
      record(&s.alloc, "new");
    } else if (alloc_calls().count(t) != 0 && i + 1 < toks.size() &&
               (is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "<"))) {
      record(&s.alloc, t);
    } else if ((t == "vector" || t == "string") &&
               !(i > 0 && (is_punct(toks[i - 1], ".") ||
                           is_punct(toks[i - 1], "->")))) {
      const std::string name = sized_container_local(toks, i, end);
      if (!name.empty()) record(&s.alloc, "std::" + t + " " + name);
    } else if (t == "throw") {
      record(&s.thr, "throw");
    } else if (guard_types().count(t) != 0) {
      record(&s.lock, t);
    } else if ((t == "lock" || t == "try_lock") && i > 0 &&
               (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                is_punct(toks[i - 1], "::")) &&
               i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      record(&s.lock, t);
    } else if (config.hot_io_calls.count(t) != 0 && i + 1 < toks.size() &&
               is_punct(toks[i + 1], "(") && call_context(toks, i) &&
               !(i > 0 && (is_punct(toks[i - 1], ".") ||
                           is_punct(toks[i - 1], "->")))) {
      // Member calls are excluded: `sensor.read(...)` is a method on a model
      // object, not the read(2) syscall.  Real IO in this tree is reached
      // through free or namespace-qualified functions (net::send_all,
      // ::fsync), which keep the bare/qualified spelling.
      record(&s.io, t);
    }
  }
  return s;
}

const char* category_verb(char cat) {
  switch (cat) {
    case 'a': return "allocates";
    case 't': return "throws";
    case 'l': return "acquires a lock";
    default:  return "performs blocking io";
  }
}

const char* category_name(char cat) {
  switch (cat) {
    case 'a': return "alloc";
    case 't': return "throw";
    case 'l': return "lock";
    default:  return "io";
  }
}

bool category_banned(const HotContract& hot, char cat) {
  switch (cat) {
    case 'a': return hot.ban_alloc;
    case 't': return hot.ban_throw;
    case 'l': return hot.ban_lock;
    default:  return hot.ban_io;
  }
}

}  // namespace

// ---------------------------------------------------------------------------

FlowAnalyzer::FlowAnalyzer(const LayeringConfig* config, Rules rules)
    : config_(config), rules_(rules) {}

void FlowAnalyzer::add_file(const std::string* path, const LexResult* lex,
                            const FileSymbols* symbols) {
  files_.push_back(FileView{path, lex, symbols});
  index_.add(*path, *symbols);
}

void FlowAnalyzer::finish(Stats* stats, std::vector<Diagnostic>* out) {
  const auto emit = [&](const std::string& file, int line, const char* rule,
                        std::string message) {
    out->push_back(Diagnostic{file, line, rule, std::move(message)});
  };

  // ---- must-consume: build the registry across every TU first ------------
  // fn name -> declared status return type.
  std::map<std::string, std::string> status_fns;
  if (rules_.must_consume && !config_->status_types.empty()) {
    for (const FileView& f : files_) {
      const std::vector<Token>& toks = f.lex->tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].in_directive || toks[i].kind != TokKind::kIdentifier ||
            config_->status_types.count(toks[i].text) == 0) {
          continue;
        }
        // `Status [qualifier::]name (` declares a status-returning function.
        std::size_t j = i + 1;
        std::size_t last_ident = toks.size();
        while (j < toks.size()) {
          if (toks[j].kind == TokKind::kIdentifier) {
            last_ident = j;
            ++j;
          } else if (is_punct(toks[j], "::") || is_punct(toks[j], "&") ||
                     is_punct(toks[j], "*")) {
            ++j;
          } else {
            break;
          }
        }
        if (last_ident == toks.size() || j >= toks.size() ||
            !is_punct(toks[j], "(")) {
          continue;
        }
        if (non_callee_keywords().count(toks[last_ident].text) != 0) continue;
        status_fns.emplace(toks[last_ident].text, toks[i].text);
      }
    }
  }

  // ---- hot summaries for every function (callee side of hot-path) --------
  std::map<const FunctionDef*, HotSummary> summaries;
  std::map<const FunctionDef*, const FileView*> def_file;
  if (rules_.hot_path) {
    for (const FileView& f : files_) {
      for (const FunctionDef& fn : f.symbols->functions) {
        summaries.emplace(&fn, summarize_function(f.lex->tokens, fn, *config_));
        def_file.emplace(&fn, &f);
      }
    }
  }

  // ---- per-file walks -----------------------------------------------------
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  std::vector<Layout> layouts;
  std::map<std::string, std::size_t> layout_by_name;

  for (const FileView& f : files_) {
    const std::vector<Token>& toks = f.lex->tokens;
    const std::string& path = *f.path;

    // ---- must-consume call sites ----------------------------------------
    if (rules_.must_consume &&
        (!status_fns.empty() || !config_->consume_bool_functions.empty())) {
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token& tok = toks[i];
        if (tok.in_directive || tok.kind != TokKind::kIdentifier) continue;
        const auto status_it = status_fns.find(tok.text);
        const bool is_status = status_it != status_fns.end();
        const bool is_bool =
            config_->consume_bool_functions.count(tok.text) != 0;
        if (!is_status && !is_bool) continue;
        if (!is_punct(toks[i + 1], "(")) continue;
        if (!call_context(toks, i)) continue;  // declaration, not a call
        ++stats->must_consume_sites;
        const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
        if (close + 1 >= toks.size() || !is_punct(toks[close + 1], ";")) {
          continue;  // result feeds an expression / initializer / return
        }
        // Walk the receiver chain back to the statement boundary; anything
        // other than a boundary there means the value is consumed.
        std::size_t s = i;
        while (s > 0) {
          const Token& p = toks[s - 1];
          if (!is_punct(p, ".") && !is_punct(p, "->") && !is_punct(p, "::")) {
            break;
          }
          if (s < 2) {
            s = 0;
            break;
          }
          const Token& q = toks[s - 2];
          if (q.kind == TokKind::kIdentifier) {
            s -= 2;
            continue;
          }
          if (is_punct(q, ")") || is_punct(q, "]")) {
            const std::size_t open = skip_balanced_back(
                toks, s - 2, q.text == ")" ? "(" : "[", q.text);
            s = open;
            if (s > 0 && toks[s - 1].kind == TokKind::kIdentifier) {
              s -= 1;
              continue;
            }
          }
          break;
        }
        bool ignored = s == 0;
        if (!ignored) {
          const Token& boundary = toks[s - 1];
          if (is_punct(boundary, ";") || is_punct(boundary, "{") ||
              is_punct(boundary, "}")) {
            ignored = true;
          } else if (is_ident(boundary, "else") || is_ident(boundary, "do")) {
            ignored = true;  // un-braced `else f(x);`
          } else if (is_punct(boundary, ")")) {
            // `if (cond) f(x);` — the statement after an un-braced control
            // header still drops the value.
            const std::size_t open =
                skip_balanced_back(toks, s - 1, "(", ")");
            if (open > 0 && toks[open - 1].kind == TokKind::kIdentifier &&
                control_keywords().count(toks[open - 1].text) != 0) {
              ignored = true;
            }
          }
        }
        if (!ignored) continue;
        const std::string what =
            is_status ? "returns '" + status_it->second + "'"
                      : "registered bool status";
        emit(path, tok.line, kRuleMustConsume,
             "status result of '" + tok.text + "' (" + what +
                 ") is discarded; assign, compare, or return it");
      }
    }

    // ---- wire-layout directives ------------------------------------------
    if (rules_.wire_layout) {
      // Fields bind to the most recent layout directive above them.
      std::size_t current = layouts.size();
      bool have_current = false;
      for (const Token& comment : f.lex->comments) {
        const std::size_t start = directive_payload_start(comment.text);
        const bool is_layout =
            comment.text.compare(start, 7, "layout:") == 0;
        const bool is_field = comment.text.compare(start, 6, "field:") == 0;
        if (!is_layout && !is_field) continue;
        const std::string payload =
            comment.text.substr(start + (is_layout ? 7 : 6));
        const std::vector<std::string> words = split_words(payload);

        if (is_layout) {
          Layout layout;
          layout.file = f.path;
          layout.line = comment.line;
          std::string error;
          if (words.empty()) {
            error = "missing layout name";
          } else {
            layout.name = words[0];
            for (std::size_t w = 1; w < words.size() && error.empty(); ++w) {
              const std::string& word = words[w];
              if (word.compare(0, 5, "size=") == 0) {
                if (!parse_long(word.substr(5), &layout.size) ||
                    layout.size <= 0) {
                  error = "bad size in '" + word + "'";
                }
              } else if (word.compare(0, 5, "crc=[") == 0) {
                const std::size_t comma = word.find(',', 5);
                const std::size_t close = word.find(')', 5);
                if (comma == std::string::npos || close == std::string::npos ||
                    close < comma ||
                    !parse_long(word.substr(5, comma - 5), &layout.crc_lo) ||
                    !parse_long(word.substr(comma + 1, close - comma - 1),
                                &layout.crc_hi)) {
                  error = "bad crc span in '" + word + "'";
                } else {
                  layout.has_crc = true;
                }
              } else {
                error = "unknown attribute '" + word + "'";
              }
            }
            if (error.empty() && layout.size < 0) {
              error = "missing size=<bytes>";
            }
          }
          if (!error.empty()) {
            emit(path, comment.line, kRuleWireLayout,
                 "malformed layout directive (" + error +
                     "); expected 'layout: <name> size=<bytes> "
                     "crc=[<lo>,<hi>)'");
            have_current = false;
            continue;
          }
          if (layout_by_name.count(layout.name) != 0) {
            const Layout& first = layouts[layout_by_name[layout.name]];
            emit(path, comment.line, kRuleWireLayout,
                 "wire layout '" + layout.name + "' already declared at " +
                     *first.file + ":" + std::to_string(first.line));
            have_current = false;
            continue;
          }
          current = layouts.size();
          have_current = true;
          layout_by_name.emplace(layout.name, current);
          layouts.push_back(std::move(layout));
          continue;
        }

        // A field directive — '<name> size=<bytes>' on an offset constant.
        LayoutField field;
        field.file = f.path;
        field.line = comment.line;
        std::string error;
        if (words.empty()) {
          error = "missing field name";
        } else {
          field.name = words[0];
          bool have_size = false;
          for (std::size_t w = 1; w < words.size() && error.empty(); ++w) {
            if (words[w].compare(0, 5, "size=") == 0) {
              have_size =
                  parse_long(words[w].substr(5), &field.size) && field.size > 0;
              if (!have_size) error = "bad size in '" + words[w] + "'";
            } else {
              error = "unknown attribute '" + words[w] + "'";
            }
          }
          if (error.empty() && !have_size) error = "missing size=<bytes>";
        }
        if (!error.empty()) {
          emit(path, comment.line, kRuleWireLayout,
               "malformed field directive (" + error +
                   "); expected 'field: <name> size=<bytes>'");
          continue;
        }
        if (!have_current) {
          emit(path, comment.line, kRuleWireLayout,
               "field directive '" + field.name +
                   "' has no preceding layout directive in this file");
          continue;
        }
        // The annotated constant: the directive's own line (trailing
        // comment) or the first code line below it.
        int attach_line = -1;
        for (const Token& t : toks) {
          if (t.line == comment.line) {
            attach_line = comment.line;
            break;
          }
        }
        if (attach_line < 0) {
          for (const Token& t : toks) {
            if (t.line > comment.end_line &&
                (attach_line < 0 || t.line < attach_line)) {
              attach_line = t.line;
            }
          }
        }
        bool found = false;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
          if (toks[i].line == attach_line && is_punct(toks[i], "=") &&
              toks[i + 1].kind == TokKind::kNumber &&
              parse_long(toks[i + 1].text, &field.offset)) {
            field.line = toks[i + 1].line;
            found = true;
            break;
          }
        }
        if (!found) {
          emit(path, comment.line, kRuleWireLayout,
               "field directive '" + field.name +
                   "' must annotate an integer offset constant "
                   "('= <literal>' on the same or next line)");
          continue;
        }
        layouts[current].fields.push_back(std::move(field));
      }
    }

    // ---- lock-order: per-function guard tracking -------------------------
    if (rules_.lock_order) {
      for (const FunctionDef& fn : f.symbols->functions) {
        int depth = 0;
        std::vector<HeldLock> held;
        const std::size_t end = std::min(fn.body_end, toks.size() - 1);
        for (std::size_t i = fn.body_begin; i <= end; ++i) {
          const Token& tok = toks[i];
          if (tok.in_directive) continue;
          if (is_punct(tok, "{")) {
            ++depth;
            continue;
          }
          if (is_punct(tok, "}")) {
            --depth;
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const HeldLock& h) {
                                        return h.depth > depth;
                                      }),
                       held.end());
            continue;
          }
          if (tok.kind != TokKind::kIdentifier) continue;

          // Guard declaration: `lock_guard<...> name{args}` / `(args)`.
          if (guard_types().count(tok.text) != 0) {
            std::size_t j = i + 1;
            if (j < toks.size() && is_punct(toks[j], "<")) {
              j = skip_balanced(toks, j, "<", ">") + 1;
            }
            std::string var;
            if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
              var = toks[j].text;
              ++j;
            }
            const bool paren = j < toks.size() && is_punct(toks[j], "(");
            const bool brace = j < toks.size() && is_punct(toks[j], "{");
            if (!paren && !brace) continue;  // a type mention, not a guard
            const std::size_t close =
                skip_balanced(toks, j, paren ? "(" : "{", paren ? ")" : "}");
            // Split constructor args at the top level.
            std::vector<std::pair<std::size_t, std::size_t>> args;
            {
              int pd = 0;
              int ad = 0;
              int bd = 0;
              std::size_t start = j + 1;
              for (std::size_t k = j + 1; k < close; ++k) {
                if (is_punct(toks[k], "(")) ++pd;
                if (is_punct(toks[k], ")")) --pd;
                if (is_punct(toks[k], "<")) ++ad;
                if (is_punct(toks[k], ">")) --ad;
                if (is_punct(toks[k], "{")) ++bd;
                if (is_punct(toks[k], "}")) --bd;
                if (is_punct(toks[k], ",") && pd == 0 && ad == 0 && bd == 0) {
                  args.emplace_back(start, k);
                  start = k + 1;
                }
              }
              if (start < close) args.emplace_back(start, close);
            }
            bool deferred = false;
            std::vector<std::pair<std::size_t, std::size_t>> mutex_args;
            for (const auto& [a, b] : args) {
              bool tag = false;
              for (std::size_t k = a; k < b; ++k) {
                if (toks[k].kind != TokKind::kIdentifier) continue;
                if (toks[k].text == "defer_lock" ||
                    toks[k].text == "try_to_lock") {
                  deferred = true;  // nothing is held at construction
                  tag = true;
                }
                if (toks[k].text == "adopt_lock") tag = true;
              }
              if (!tag) mutex_args.emplace_back(a, b);
            }
            if (!deferred) {
              // scoped_lock's multi-arg form uses the deadlock-avoiding
              // std::lock under the hood, so its args gain no mutual edges;
              // edges only come from locks already held on entry.
              const std::size_t held_on_entry = held.size();
              for (const auto& [a, b] : mutex_args) {
                const std::string key =
                    resolve_mutex_key(toks, a, b, fn.class_name, index_);
                if (key.empty()) continue;
                ++stats->lock_sites;
                for (std::size_t h = 0; h < held_on_entry; ++h) {
                  if (held[h].key == key) continue;
                  const auto edge = std::make_pair(held[h].key, key);
                  if (edges.count(edge) == 0) {
                    edges[edge] =
                        EdgeSite{f.path, toks[a].line, fn.qualified()};
                  }
                }
                held.push_back(HeldLock{key, var, depth, toks[a].line});
              }
            }
            i = close;
            continue;
          }

          // Early release: `guard.unlock()`.
          if (tok.text == "unlock" && i >= 2 && is_punct(toks[i - 1], ".") &&
              toks[i - 2].kind == TokKind::kIdentifier) {
            const std::string& var = toks[i - 2].text;
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const HeldLock& h) {
                                        return !h.var.empty() && h.var == var;
                                      }),
                       held.end());
            continue;
          }

          // Blocking call while holding any lock.
          if (config_->blocking_calls.count(tok.text) != 0 &&
              i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
              call_context(toks, i)) {
            ++stats->blocking_sites;
            if (!held.empty()) {
              std::string held_desc;
              for (const HeldLock& h : held) {
                if (!held_desc.empty()) held_desc += ", ";
                held_desc += "'" + h.key + "' (acquired line " +
                             std::to_string(h.line) + ")";
              }
              emit(path, tok.line, kRuleLockOrder,
                   "blocking call '" + tok.text + "' while holding " +
                       held_desc +
                       "; a stalled peer pins the critical section — release "
                       "the lock first");
            }
          }
        }
      }
    }

    // ---- hot-path: contracts local to this file --------------------------
    if (rules_.hot_path) {
      for (const int line : f.symbols->dangling_hot_lines) {
        emit(path, line, kRuleHotPath,
             "hot contract attaches to no function definition (the next "
             "code line does not start one)");
      }
      for (const FunctionDef& fn : f.symbols->functions) {
        if (!fn.has_hot) continue;
        if (!fn.hot.error.empty()) {
          emit(path, fn.hot.line, kRuleHotPath, fn.hot.error);
          continue;
        }
        ++stats->hot_functions;
        const HotSummary& s = summaries.at(&fn);
        for (const char cat : {'a', 't', 'l', 'i'}) {
          if (!category_banned(fn.hot, cat)) continue;
          const CatHit* hit = s.by_category(cat);
          if (!hit->hit) continue;
          emit(path, hit->line, kRuleHotPath,
               "'" + hit->what + "' " + category_verb(cat) + " inside '" +
                   fn.qualified() + "', whose hot contract (line " +
                   std::to_string(fn.hot.line) + ") bans " +
                   category_name(cat));
        }
        // Transitive, one call level deep: a callee with a definition we
        // indexed must itself honour the caller's banned categories.  When
        // a name has several definitions, all of them must violate before
        // we diagnose (same-name overloads should not cross-contaminate).
        std::set<std::pair<std::string, char>> reported;
        const std::size_t end = std::min(fn.body_end, toks.size() - 1);
        for (std::size_t i = fn.body_begin; i <= end; ++i) {
          const Token& tok = toks[i];
          if (tok.in_directive || tok.kind != TokKind::kIdentifier) continue;
          if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
          if (non_callee_keywords().count(tok.text) != 0) continue;
          if (!call_context(toks, i)) continue;
          if (tok.text == fn.name) continue;  // recursion
          const std::vector<SymbolIndex::DefRef>* defs =
              index_.definitions_of(tok.text);
          if (defs == nullptr || defs->empty()) continue;
          ++stats->hot_callee_checks;
          for (const char cat : {'a', 't', 'l', 'i'}) {
            if (!category_banned(fn.hot, cat)) continue;
            if (reported.count({tok.text, cat}) != 0) continue;
            bool all_violate = true;
            const SymbolIndex::DefRef* witness = nullptr;
            for (const SymbolIndex::DefRef& ref : *defs) {
              const auto it = summaries.find(ref.def);
              const CatHit* hit =
                  it == summaries.end() ? nullptr : it->second.by_category(cat);
              if (hit == nullptr || !hit->hit) {
                all_violate = false;
                break;
              }
              if (witness == nullptr) witness = &ref;
            }
            if (!all_violate || witness == nullptr) continue;
            reported.insert({tok.text, cat});
            emit(path, tok.line, kRuleHotPath,
                 "call to '" + tok.text + "' (defined at " + *witness->file +
                     ":" + std::to_string(witness->def->line) + ", which " +
                     category_verb(cat) + ") from '" + fn.qualified() +
                     "', whose hot contract (line " +
                     std::to_string(fn.hot.line) + ") bans " +
                     category_name(cat) + " (transitive, depth 1)");
          }
        }
      }
    }
  }

  // ---- lock-order: cross-TU cycle detection -------------------------------
  if (rules_.lock_order) {
    stats->lock_edges = static_cast<int>(edges.size());
    std::map<std::string, std::set<std::string>> adj;
    for (const auto& [edge, site] : edges) adj[edge.first].insert(edge.second);
    for (const auto& [edge, site] : edges) {
      const std::string& a = edge.first;
      const std::string& b = edge.second;
      // BFS b -> a; a path back means this edge closes a cycle.
      std::map<std::string, std::string> parent;
      std::deque<std::string> queue{b};
      parent[b] = b;
      bool found = false;
      while (!queue.empty() && !found) {
        const std::string cur = queue.front();
        queue.pop_front();
        for (const std::string& next : adj[cur]) {
          if (parent.count(next) != 0) continue;
          parent[next] = cur;
          if (next == a) {
            found = true;
            break;
          }
          queue.push_back(next);
        }
      }
      if (!found) continue;
      // Reconstruct b -> ... -> a and emit one diagnostic per cycle: only
      // the edge leaving the cycle's lexicographically smallest node.
      std::vector<std::string> path;
      for (std::string cur = a;; cur = parent.at(cur)) {
        path.push_back(cur);
        if (cur == b) break;
      }
      std::reverse(path.begin(), path.end());  // now b, ..., a
      std::string min_node = a;
      for (const std::string& node : path) min_node = std::min(min_node, node);
      if (a != min_node) continue;

      std::string chain = "'" + a + "' -> '" + b + "'";
      for (std::size_t k = 1; k < path.size(); ++k) {
        chain += " -> '" + path[k] + "'";
      }
      std::string detail = "'" + b + "' acquired while holding '" + a +
                           "' here (in " + site.function + ")";
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        const auto hop = edges.find({path[k], path[k + 1]});
        if (hop == edges.end()) continue;
        detail += "; '" + path[k + 1] + "' while holding '" + path[k] +
                  "' at " + *hop->second.file + ":" +
                  std::to_string(hop->second.line) + " (in " +
                  hop->second.function + ")";
      }
      emit(*site.file, site.line, kRuleLockOrder,
           "lock-order cycle " + chain +
               " — threads taking the two orders can deadlock: " + detail);
    }
  }

  // ---- wire-layout: validate every collected layout -----------------------
  if (rules_.wire_layout) {
    for (Layout& layout : layouts) {
      ++stats->layouts_checked;
      stats->layout_fields += static_cast<int>(layout.fields.size());
      const std::string& path = *layout.file;
      if (layout.fields.empty()) {
        emit(path, layout.line, kRuleWireLayout,
             "wire layout '" + layout.name +
                 "' declares no fields (add 'field:' directives to its "
                 "offset constants)");
        continue;
      }
      std::stable_sort(layout.fields.begin(), layout.fields.end(),
                       [](const LayoutField& x, const LayoutField& y) {
                         return x.offset < y.offset;
                       });
      std::set<std::string> names;
      for (const LayoutField& field : layout.fields) {
        if (!names.insert(field.name).second) {
          emit(*field.file, field.line, kRuleWireLayout,
               "wire layout '" + layout.name + "' declares field '" +
                   field.name + "' twice");
        }
      }
      const LayoutField& first = layout.fields.front();
      if (first.offset != 0) {
        emit(*first.file, first.line, kRuleWireLayout,
             "wire layout '" + layout.name + "': first field '" + first.name +
                 "' starts at offset " + std::to_string(first.offset) +
                 ", expected 0");
      }
      for (std::size_t k = 0; k + 1 < layout.fields.size(); ++k) {
        const LayoutField& cur = layout.fields[k];
        const LayoutField& next = layout.fields[k + 1];
        const long cur_end = cur.offset + cur.size;
        if (next.offset < cur_end) {
          emit(*next.file, next.line, kRuleWireLayout,
               "wire layout '" + layout.name + "': field '" + next.name +
                   "' at [" + std::to_string(next.offset) + "," +
                   std::to_string(next.offset + next.size) + ") overlaps '" +
                   cur.name + "' at [" + std::to_string(cur.offset) + "," +
                   std::to_string(cur_end) + ")");
        } else if (next.offset > cur_end) {
          emit(*next.file, next.line, kRuleWireLayout,
               "wire layout '" + layout.name + "': " +
                   std::to_string(next.offset - cur_end) +
                   "-byte gap between '" + cur.name + "' (ends " +
                   std::to_string(cur_end) + ") and '" + next.name +
                   "' (starts " + std::to_string(next.offset) + ")");
        }
      }
      const LayoutField& last = layout.fields.back();
      const long covered = last.offset + last.size;
      if (covered != layout.size) {
        emit(path, layout.line, kRuleWireLayout,
             "wire layout '" + layout.name + "': fields cover [0," +
                 std::to_string(covered) + ") but the layout declares size=" +
                 std::to_string(layout.size));
      }
      if (layout.has_crc) {
        if (layout.crc_lo < 0 || layout.crc_lo >= layout.crc_hi ||
            layout.crc_hi > layout.size) {
          emit(path, layout.line, kRuleWireLayout,
               "wire layout '" + layout.name + "': crc span [" +
                   std::to_string(layout.crc_lo) + "," +
                   std::to_string(layout.crc_hi) +
                   ") must lie inside [0," + std::to_string(layout.size) +
                   ") with lo < hi");
        } else {
          for (const LayoutField& field : layout.fields) {
            const bool is_crc_field =
                field.name.find("crc") != std::string::npos;
            const bool overlaps = field.offset < layout.crc_hi &&
                                  layout.crc_lo < field.offset + field.size;
            if (is_crc_field && overlaps) {
              emit(*field.file, field.line, kRuleWireLayout,
                   "wire layout '" + layout.name + "': crc field '" +
                       field.name + "' at [" + std::to_string(field.offset) +
                       "," + std::to_string(field.offset + field.size) +
                       ") lies inside its own coverage span [" +
                       std::to_string(layout.crc_lo) + "," +
                       std::to_string(layout.crc_hi) + ")");
            }
          }
        }
      }
    }
  }
}

}  // namespace tsvpt::lint
