#include "attrib/signature.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/behavior.h"
#include "trace/intern.h"
#include "util/strings.h"

namespace leaps::attrib {

namespace {

void sort_unique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void write_list(std::ostream& os, const std::vector<std::string>& v) {
  if (v.empty()) {
    os << '-';
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    os << v[i];
  }
}

/// Internal parse error carrying the 1-based line number.
struct SigError {
  std::size_t line;
  std::string what;
};

}  // namespace

void write_signature(const CampaignSignature& sig, std::ostream& os) {
  os << "# LEAPS campaign signature (see DESIGN.md §15)\n";
  os << "SIGNATURE " << sig.name << '\n';
  for (const TechniqueNode& n : sig.nodes) {
    os << "NODE " << n.id << ' ' << n.name << " TYPES ";
    for (std::size_t i = 0; i < n.event_types.size(); ++i) {
      if (i > 0) os << ',';
      os << trace::event_type_name(n.event_types[i]);
    }
    os << " LIBS ";
    write_list(os, n.libs);
    os << " FUNCS ";
    write_list(os, n.funcs);
    os << '\n';
  }
  for (const SignatureEdge& e : sig.edges) {
    os << "EDGE " << e.from << ' ' << e.to << " GAP " << e.max_gap_windows
       << '\n';
  }
}

std::string signature_to_string(const CampaignSignature& sig) {
  std::ostringstream os;
  write_signature(sig, os);
  return os.str();
}

util::StatusOr<CampaignSignature> read_signature(std::istream& is) {
  CampaignSignature sig;
  std::string raw;
  std::size_t lineno = 0;
  try {
    const auto fail = [&lineno](const std::string& what) {
      throw SigError{lineno, what};
    };
    const auto parse_u32 = [&](std::string_view s) -> std::uint32_t {
      std::uint64_t v = 0;
      if (s.empty()) fail("empty number");
      for (char c : s) {
        if (c < '0' || c > '9') fail("bad number '" + std::string(s) + "'");
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 0xffffffffULL) fail("number out of range");
      }
      return static_cast<std::uint32_t>(v);
    };
    // A list is "-" (empty) or comma-separated entries, none of them empty.
    const auto for_each_entry = [&fail](std::string_view list,
                                        const auto& visit) {
      if (list == "-") return;
      util::for_each_field(list, ',', [&](std::string_view entry) {
        if (entry.empty()) fail("empty list entry");
        visit(entry);
      });
    };
    while (std::getline(is, raw)) {
      ++lineno;
      const std::string_view line = util::trim(raw);
      if (line.empty() || line.front() == '#') continue;
      const auto tok = util::split_ws(line);
      if (tok[0] == "SIGNATURE") {
        if (tok.size() != 2) fail("SIGNATURE takes exactly one name");
        if (!sig.name.empty()) fail("duplicate SIGNATURE record");
        sig.name = std::string(tok[1]);
      } else if (tok[0] == "NODE") {
        if (sig.name.empty()) fail("NODE before SIGNATURE");
        if (tok.size() != 9 || tok[3] != "TYPES" || tok[5] != "LIBS" ||
            tok[7] != "FUNCS") {
          fail("NODE shape is: NODE <id> <name> TYPES t,.. LIBS l,..|- "
               "FUNCS f,..|-");
        }
        TechniqueNode n;
        n.id = parse_u32(tok[1]);
        for (const TechniqueNode& seen : sig.nodes) {
          if (seen.id == n.id) fail("duplicate node id");
        }
        n.name = std::string(tok[2]);
        for_each_entry(tok[4], [&](std::string_view t) {
          const auto type = trace::event_type_from_name(t);
          if (!type) fail("unknown event type '" + std::string(t) + "'");
          n.event_types.push_back(*type);
        });
        if (n.event_types.empty()) fail("NODE without event types");
        std::sort(n.event_types.begin(), n.event_types.end());
        n.event_types.erase(
            std::unique(n.event_types.begin(), n.event_types.end()),
            n.event_types.end());
        for_each_entry(tok[6],
                       [&](std::string_view l) { n.libs.emplace_back(l); });
        sort_unique(n.libs);
        for_each_entry(tok[8], [&](std::string_view f) {
          if (f.find('!') == std::string_view::npos) {
            fail("FUNCS entries are module-qualified (lib!func)");
          }
          n.funcs.emplace_back(f);
        });
        sort_unique(n.funcs);
        sig.nodes.push_back(std::move(n));
      } else if (tok[0] == "EDGE") {
        if (sig.name.empty()) fail("EDGE before SIGNATURE");
        if (tok.size() != 5 || tok[3] != "GAP") {
          fail("EDGE shape is: EDGE <from> <to> GAP <windows>");
        }
        SignatureEdge e;
        e.from = parse_u32(tok[1]);
        e.to = parse_u32(tok[2]);
        e.max_gap_windows = parse_u32(tok[4]);
        if (e.from == e.to) fail("self-edge");
        const auto has = [&sig](std::uint32_t id) {
          for (const TechniqueNode& n : sig.nodes) {
            if (n.id == id) return true;
          }
          return false;
        };
        if (!has(e.from) || !has(e.to)) fail("edge references missing node");
        sig.edges.push_back(e);
      } else {
        fail("unknown record '" + std::string(tok[0]) + "'");
      }
    }
    if (sig.name.empty()) {
      throw SigError{lineno, "missing SIGNATURE record"};
    }
    if (sig.nodes.empty()) {
      throw SigError{lineno, "signature without nodes"};
    }
  } catch (const SigError& e) {
    return util::corrupt_input("signature parse error at line " +
                               std::to_string(e.line) + ": " + e.what);
  } catch (const std::bad_alloc&) {
    return util::resource_exhausted("signature parse: allocation failed");
  }
  return sig;
}

CampaignSignature signature_from_campaign(const sim::CampaignSpec& spec) {
  CampaignSignature sig;
  sig.name = spec.name;
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    const sim::CampaignStageSpec& stage = spec.stages[s];
    const sim::ProgramSpec pspec = sim::campaign_stage_payload_spec(spec, stage);
    TechniqueNode node;
    node.id = static_cast<std::uint32_t>(s);
    node.name = std::string(sim::campaign_stage_name(stage.stage));
    for (const auto& [kind, weight] : pspec.mix) {
      (void)weight;
      // Restrict to the payload's chain style when the action has
      // variants of it — the same fallback BehaviorTable::variants uses,
      // so the predicate covers exactly the stacks the stage can emit.
      const auto& all = sim::action_variants(kind);
      bool any_styled = false;
      for (const sim::ActionVariant& v : all) {
        if (v.style == pspec.chain_style) any_styled = true;
      }
      for (const sim::ActionVariant& v : all) {
        if (any_styled && v.style != pspec.chain_style) continue;
        node.event_types.push_back(v.event_type);
        for (const sim::SystemFrameSpec& f : v.frames) {
          node.libs.emplace_back(f.lib);
          node.funcs.push_back(trace::qualified_function(f.lib, f.func));
        }
      }
    }
    std::sort(node.event_types.begin(), node.event_types.end());
    node.event_types.erase(
        std::unique(node.event_types.begin(), node.event_types.end()),
        node.event_types.end());
    sort_unique(node.libs);
    sort_unique(node.funcs);
    sig.nodes.push_back(std::move(node));
  }
  for (std::size_t s = 0; s + 1 < spec.stages.size(); ++s) {
    SignatureEdge e;
    e.from = static_cast<std::uint32_t>(s);
    e.to = static_cast<std::uint32_t>(s + 1);
    e.max_gap_windows = 0;
    sig.edges.push_back(e);
  }
  return sig;
}

std::vector<CampaignSignature> decoy_signatures(const CampaignSignature& sig) {
  std::vector<CampaignSignature> out;

  // The kill chain run backwards: same techniques, reversed ordering.
  CampaignSignature reversed = sig;
  reversed.name = sig.name + "__reversed";
  for (SignatureEdge& e : reversed.edges) std::swap(e.from, e.to);
  out.push_back(std::move(reversed));

  // Techniques rotated one stage out of phase: node ids/edges keep the
  // chain shape but each position carries the next stage's predicates.
  if (sig.nodes.size() > 1) {
    CampaignSignature rotated = sig;
    rotated.name = sig.name + "__rotated";
    for (std::size_t i = 0; i < sig.nodes.size(); ++i) {
      const TechniqueNode& src = sig.nodes[(i + 1) % sig.nodes.size()];
      rotated.nodes[i].name = src.name;
      rotated.nodes[i].event_types = src.event_types;
      rotated.nodes[i].libs = src.libs;
      rotated.nodes[i].funcs = src.funcs;
    }
    out.push_back(std::move(rotated));
  }
  return out;
}

void SignatureLibrary::add(CampaignSignature sig) {
  const auto it = std::lower_bound(
      sigs_.begin(), sigs_.end(), sig,
      [](const CampaignSignature& a, const CampaignSignature& b) {
        return a.name < b.name;
      });
  if (it != sigs_.end() && it->name == sig.name) {
    *it = std::move(sig);
  } else {
    sigs_.insert(it, std::move(sig));
  }
}

util::Status SignatureLibrary::load_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return util::not_found("signature directory not found: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".sig") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) return util::not_found("cannot list " + dir + ": " + ec.message());
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    return util::not_found("no .sig files under " + dir);
  }
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) return util::not_found("cannot open " + path);
    util::StatusOr<CampaignSignature> sig = read_signature(in);
    if (!sig.ok()) {
      return util::corrupt_input(path + ": " + sig.status().message());
    }
    add(*std::move(sig));
  }
  return util::ok_status();
}

}  // namespace leaps::attrib
