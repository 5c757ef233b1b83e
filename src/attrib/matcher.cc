#include "attrib/matcher.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "trace/intern.h"
#include "util/strings.h"

namespace leaps::attrib {

namespace {

/// Count of `want` entries present in sorted-unique `have`.
template <typename T>
std::size_t intersect_count(const std::vector<T>& want,
                            const std::vector<T>& have) {
  std::size_t n = 0;
  auto it = have.begin();
  for (const T& w : want) {
    it = std::lower_bound(it, have.end(), w);
    if (it == have.end()) break;
    if (*it == w) ++n;
  }
  return n;
}

/// Predicate coverage of a window: matched atoms / total atoms, where
/// the atoms are the node's event types plus its funcs (or its libs when
/// the signature carries no func predicates). Zero unless at least one
/// event type matches — the type is the mandatory signal; Lib/Func
/// refine it.
double node_coverage(const TechniqueNode& node, const WindowEvidence& w) {
  const std::size_t type_hits = intersect_count(node.event_types, w.event_types);
  if (type_hits == 0) return 0.0;
  std::size_t atoms = node.event_types.size();
  std::size_t hits = type_hits;
  if (!node.funcs.empty()) {
    atoms += node.funcs.size();
    const std::size_t func_hits = intersect_count(node.funcs, w.funcs);
    if (func_hits == 0) return 0.0;
    hits += func_hits;
  } else if (!node.libs.empty()) {
    atoms += node.libs.size();
    const std::size_t lib_hits = intersect_count(node.libs, w.libs);
    if (lib_hits == 0) return 0.0;
    hits += lib_hits;
  }
  return static_cast<double>(hits) / static_cast<double>(atoms);
}

constexpr double kNodeWeight = 0.7;
constexpr double kEdgeWeight = 0.3;

/// Minimal JSON scanning for the audit stream's fixed record shape (the
/// writer is serve/audit.cc; this is not a general JSON parser).
struct JsonScanError {
  std::string what;
};

std::string_view find_value(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) {
    throw JsonScanError{"missing key '" + std::string(key) + "'"};
  }
  return line.substr(pos + needle.size());
}

double parse_number(std::string_view v) {
  std::size_t end = 0;
  while (end < v.size() &&
         (std::isdigit(static_cast<unsigned char>(v[end])) != 0 ||
          v[end] == '-' || v[end] == '+' || v[end] == '.' || v[end] == 'e' ||
          v[end] == 'E')) {
    ++end;
  }
  if (end == 0) throw JsonScanError{"expected a number"};
  try {
    return std::stod(std::string(v.substr(0, end)));
  } catch (const std::exception&) {
    throw JsonScanError{"bad number '" + std::string(v.substr(0, end)) + "'"};
  }
}

/// The integer value of `key`: an optional '-' and digits, followed by ','
/// or '}'. A fraction, an exponent or a value outside `Int` is an error,
/// never a cast.
template <typename Int>
Int parse_integer(std::string_view line, std::string_view key) {
  const std::string_view v = find_value(line, key);
  Int out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  const std::string_view rest =
      v.substr(static_cast<std::size_t>(end - v.data()));
  if (ec != std::errc() ||
      !(rest.empty() || rest.front() == ',' || rest.front() == '}')) {
    throw JsonScanError{"'" + std::string(key) +
                        "' is not an integer in range"};
  }
  return out;
}

std::vector<std::string> parse_string_array(std::string_view v) {
  if (v.empty() || v.front() != '[') throw JsonScanError{"expected an array"};
  std::vector<std::string> out;
  std::size_t i = 1;
  while (i < v.size() && v[i] != ']') {
    if (v[i] == ',' || v[i] == ' ') {
      ++i;
      continue;
    }
    if (v[i] != '"') throw JsonScanError{"expected a string element"};
    std::string s;
    ++i;
    while (i < v.size() && v[i] != '"') {
      if (v[i] == '\\') {
        ++i;
        if (i >= v.size()) break;
        switch (v[i]) {
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          case 'r': s.push_back('\r'); break;
          case 'u': {  // obs::json_string's \u00XX for bytes below 0x20
            const char* hex = v.data() + i + 1;
            const char* last = hex + std::min<std::size_t>(4, v.size() - i - 1);
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(hex, last, code, 16);
            if (ec != std::errc() || end != hex + 4 || code >= 0x80) {
              throw JsonScanError{"unsupported \\u escape"};
            }
            s.push_back(static_cast<char>(code));
            i += 4;
            break;
          }
          default: s.push_back(v[i]); break;  // \" \\ \/ pass through
        }
      } else {
        s.push_back(v[i]);
      }
      ++i;
    }
    if (i >= v.size()) throw JsonScanError{"unterminated string"};
    ++i;  // closing quote
    out.push_back(std::move(s));
  }
  if (i >= v.size()) throw JsonScanError{"unterminated array"};
  return out;
}

}  // namespace

WindowEvidence evidence_from_events(std::size_t window_index,
                                    double decision_value,
                                    const trace::PartitionedEvent* events,
                                    std::size_t count) {
  trace::WindowProjections p = trace::project_window(events, count);
  WindowEvidence out;
  out.window_index = window_index;
  out.decision_value = decision_value;
  out.event_types = std::move(p.event_types);
  out.libs = std::move(p.libs);
  out.funcs = std::move(p.funcs);
  return out;
}

util::StatusOr<std::vector<WindowEvidence>> evidence_from_audit_jsonl(
    std::istream& is) {
  std::vector<WindowEvidence> out;
  std::string line;
  std::size_t lineno = 0;
  try {
    while (std::getline(is, line)) {
      ++lineno;
      if (util::trim(line).empty()) continue;
      const std::string_view v(line);
      if (parse_integer<int>(v, "label") != -1) {
        continue;  // benign window; attribution consumes flagged ones
      }
      WindowEvidence w;
      w.window_index = parse_integer<std::size_t>(v, "window");
      w.decision_value = parse_number(find_value(v, "decision_value"));
      const std::string_view evidence = find_value(v, "evidence");
      w.event_types.reserve(8);
      for (const std::string& name :
           parse_string_array(find_value(evidence, "event_types"))) {
        const auto type = trace::event_type_from_name(name);
        if (!type) throw JsonScanError{"unknown event type '" + name + "'"};
        w.event_types.push_back(*type);
      }
      w.libs = parse_string_array(find_value(evidence, "libs"));
      w.funcs = parse_string_array(find_value(evidence, "funcs"));
      std::sort(w.event_types.begin(), w.event_types.end());
      std::sort(w.libs.begin(), w.libs.end());
      std::sort(w.funcs.begin(), w.funcs.end());
      out.push_back(std::move(w));
    }
  } catch (const JsonScanError& e) {
    return util::corrupt_input("audit JSONL record at line " +
                               std::to_string(lineno) + ": " + e.what);
  } catch (const std::bad_alloc&) {
    return util::resource_exhausted("audit JSONL parse: allocation failed");
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const WindowEvidence& a, const WindowEvidence& b) {
                     return a.window_index < b.window_index;
                   });
  return out;
}

AttributionVerdict match_signature(
    const CampaignSignature& sig,
    const std::vector<WindowEvidence>& evidence) {
  AttributionVerdict out;
  out.signature = sig.name;
  out.nodes_total = sig.nodes.size();
  out.edges_total = sig.edges.size();
  if (sig.nodes.empty()) return out;

  // assigned[i] = evidence position of node i's window, npos if none.
  constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> assigned(sig.nodes.size(), kUnassigned);
  std::vector<double> coverage(sig.nodes.size(), 0.0);
  const auto node_pos = [&sig](std::uint32_t id) -> std::size_t {
    for (std::size_t i = 0; i < sig.nodes.size(); ++i) {
      if (sig.nodes[i].id == id) return i;
    }
    return static_cast<std::size_t>(-1);
  };

  for (std::size_t i = 0; i < sig.nodes.size(); ++i) {
    const TechniqueNode& node = sig.nodes[i];
    std::size_t best = kUnassigned;
    double best_cov = 0.0;
    for (std::size_t w = 0; w < evidence.size(); ++w) {
      bool admissible = true;
      for (const SignatureEdge& e : sig.edges) {
        if (e.to != node.id) continue;
        const std::size_t from = node_pos(e.from);
        if (from == static_cast<std::size_t>(-1) ||
            assigned[from] == kUnassigned) {
          continue;  // predecessor not (yet) placed: no constraint
        }
        if (w <= assigned[from] ||
            (e.max_gap_windows > 0 &&
             w - assigned[from] > e.max_gap_windows)) {
          admissible = false;
          break;
        }
      }
      if (!admissible) continue;
      const double cov = node_coverage(node, evidence[w]);
      if (cov > best_cov) {
        best_cov = cov;
        best = w;
      }
    }
    if (best != kUnassigned) {
      assigned[i] = best;
      coverage[i] = best_cov;
      ++out.nodes_matched;
    }
  }

  double node_sum = 0.0;
  bool any = false;
  std::size_t first = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < sig.nodes.size(); ++i) {
    node_sum += coverage[i];
    if (assigned[i] == kUnassigned) continue;
    const std::size_t w = evidence[assigned[i]].window_index;
    if (!any || w < first) first = w;
    if (!any || w > last) last = w;
    any = true;
  }
  out.first_window = first;
  out.last_window = last;

  for (const SignatureEdge& e : sig.edges) {
    const std::size_t from = node_pos(e.from);
    const std::size_t to = node_pos(e.to);
    if (from == static_cast<std::size_t>(-1) ||
        to == static_cast<std::size_t>(-1)) {
      continue;
    }
    if (assigned[from] == kUnassigned || assigned[to] == kUnassigned) continue;
    if (assigned[to] > assigned[from] &&
        (e.max_gap_windows == 0 ||
         assigned[to] - assigned[from] <= e.max_gap_windows)) {
      ++out.edges_satisfied;
    }
  }

  const double node_frac = node_sum / static_cast<double>(sig.nodes.size());
  const double edge_frac =
      sig.edges.empty() ? 1.0
                        : static_cast<double>(out.edges_satisfied) /
                              static_cast<double>(sig.edges.size());
  out.score = kNodeWeight * node_frac + kEdgeWeight * edge_frac;
  return out;
}

std::vector<AttributionVerdict> attribute(
    const SignatureLibrary& library,
    const std::vector<WindowEvidence>& evidence) {
  std::vector<AttributionVerdict> out;
  out.reserve(library.size());
  for (const CampaignSignature& sig : library.signatures()) {
    out.push_back(match_signature(sig, evidence));
  }
  std::sort(out.begin(), out.end(),
            [](const AttributionVerdict& a, const AttributionVerdict& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.signature < b.signature;
            });
  return out;
}

void FleetAttributor::observe(const serve::SessionKey& key,
                              std::size_t window_index, int label,
                              double decision_value,
                              const trace::PartitionedEvent* events,
                              std::size_t count) {
  if (label != -1) return;
  WindowEvidence evidence =
      evidence_from_events(window_index, decision_value, events, count);
  const std::lock_guard lock(mu_);
  evidence_[key].push_back(std::move(evidence));
  ++flagged_total_;
}

std::vector<FleetAttributor::SessionAttribution> FleetAttributor::snapshot(
    std::size_t top_k) const {
  std::map<serve::SessionKey, std::vector<WindowEvidence>> evidence;
  {
    const std::lock_guard lock(mu_);
    evidence = evidence_;
  }
  std::vector<SessionAttribution> out;
  out.reserve(evidence.size());
  for (const auto& [key, windows] : evidence) {
    SessionAttribution s;
    s.key = key;
    s.flagged_windows = windows.size();
    for (AttributionVerdict& v : attribute(*library_, windows)) {
      if (v.score < min_score_) continue;
      if (s.verdicts.size() >= top_k) break;
      s.verdicts.push_back(std::move(v));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t FleetAttributor::sessions() const {
  const std::lock_guard lock(mu_);
  return evidence_.size();
}

std::uint64_t FleetAttributor::flagged_total() const {
  const std::lock_guard lock(mu_);
  return flagged_total_;
}

}  // namespace leaps::attrib
