#include "core/persist.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/bytes.h"

namespace leaps::core {

namespace {

constexpr const char* kMagic = "LEAPS-DETECTOR";
constexpr const char* kVersionV1 = "v1";
constexpr const char* kVersionV2 = "v2";
constexpr const char* kVersionV3 = "v3";

// An attacker-supplied BLOCK length must not force a giant allocation.
constexpr std::size_t kMaxBlockBytes = std::size_t{256} << 20;

void require(bool condition, const std::string& what) {
  if (!condition) throw PersistError(what);
}

void check_token(const std::string& token) {
  require(!token.empty(), "empty token");
  for (const char c : token) {
    require(!std::isspace(static_cast<unsigned char>(c)),
            "token contains whitespace: '" + token + "'");
  }
}

void write_clusterer(std::ostream& os, const char* tag,
                     const SetClusterer& c) {
  os << "CLUSTERER " << tag << ' ' << c.unique_sets().size() << ' '
     << c.cluster_count() << '\n';
  const ml::ClusterResult& r = c.result();
  for (int id = 0; id < c.cluster_count(); ++id) {
    os << "POS " << id << ' ' << r.positions[static_cast<std::size_t>(id)]
       << '\n';
  }
  for (std::size_t i = 0; i < c.unique_sets().size(); ++i) {
    const ml::StringSet& set = c.unique_sets()[i];
    os << "SET " << r.assignment[i] << ' ' << set.size();
    for (const std::string& member : set) {
      check_token(member);
      os << ' ' << member;
    }
    os << '\n';
  }
}

void write_options(std::ostream& os, const PreprocessOptions& popt) {
  os << "OPTIONS " << popt.window << ' '
     << popt.lib_clustering.cut_distance << ' '
     << popt.lib_clustering.gap_scale << ' '
     << popt.func_clustering.cut_distance << ' '
     << popt.func_clustering.gap_scale << '\n';
}

void write_scaler(std::ostream& os, const ml::MinMaxScaler& scaler) {
  os << "SCALER " << scaler.dims() << '\n';
  os << "MIN";
  for (const double v : scaler.mins()) os << ' ' << v;
  os << "\nRANGE";
  for (const double v : scaler.ranges()) os << ' ' << v;
  os << '\n';
}

void write_svm(std::ostream& os, const Detector& detector) {
  const ml::SvmModel& model = detector.model();
  const ml::KernelParams& kernel = model.kernel();
  // "3 1": the legacy polynomial fields every v1-v3 file carries.
  os << "SVM gaussian " << kernel.sigma2 << " 3 1 " << model.bias()
     << ' ' << model.support_vector_count() << ' '
     << (model.support_vector_count() > 0 ? model.support_vectors()[0].size()
                                          : 0)
     << '\n';
  for (std::size_t i = 0; i < model.support_vector_count(); ++i) {
    os << "SV " << model.coefficients()[i];
    for (const double v : model.support_vectors()[i]) os << ' ' << v;
    os << '\n';
  }
  os << "THRESHOLD " << detector.decision_threshold() << '\n';
}

void write_continual(std::ostream& os, const ContinualState& cs) {
  os << "CONTINUAL\n";
  os << "LAMBDA " << cs.lambda << '\n';
  os << "CFG " << cs.benign_cfg.edge_count() << '\n';
  for (const auto& [from, succs] : cs.benign_cfg.adjacency()) {
    for (const cfg::AddressGraph::Address to : succs) {
      os << "E " << from << ' ' << to << '\n';
    }
  }
  os << "TRAINSET " << cs.train.size() << ' ' << cs.train.dims() << '\n';
  for (std::size_t i = 0; i < cs.train.size(); ++i) {
    os << "ROW " << cs.train.y[i] << ' ' << cs.train.weight[i] << ' '
       << cs.alpha[i];
    for (const double v : cs.train.X[i]) os << ' ' << v;
    os << '\n';
  }
}

void write_block(std::ostream& os, const char* name,
                 const std::string& payload) {
  util::write_framed(os, std::string("BLOCK ") + name, payload);
}

/// Token reader over the whole body, with error context.
class Reader {
 public:
  explicit Reader(std::string text)
      : size_(text.size()), is_(std::move(text)) {}

  std::string word() {
    std::string w;
    require(static_cast<bool>(is_ >> w), "unexpected end of input");
    return w;
  }
  void expect(const std::string& token) {
    const std::string w = word();
    require(w == token, "expected '" + token + "', got '" + w + "'");
  }
  long long integer() {
    const std::string w = word();
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(w, &pos);
      require(pos == w.size(), "bad integer '" + w + "'");
      return v;
    } catch (const std::logic_error&) {
      throw PersistError("bad integer '" + w + "'");
    }
  }
  double real() {
    const std::string w = word();
    try {
      std::size_t pos = 0;
      const double v = std::stod(w, &pos);
      require(pos == w.size(), "bad number '" + w + "'");
      return v;
    } catch (const std::logic_error&) {
      throw PersistError("bad number '" + w + "'");
    }
  }
  /// An item count that the unread text can back with at least
  /// `min_bytes` per item: nothing is sized from a count the input lacks.
  std::size_t count(std::size_t min_bytes) {
    const long long n = integer();
    const std::streamoff pos = is_.tellg();
    const std::size_t left =
        pos < 0 ? 0 : size_ - static_cast<std::size_t>(pos);
    require(n >= 0 && static_cast<unsigned long long>(n) <= left / min_bytes,
            "implausible count " + std::to_string(n));
    return static_cast<std::size_t>(n);
  }

 private:
  std::size_t size_;
  std::istringstream is_;
};

SetClusterer read_clusterer(Reader& r, const char* tag,
                            ml::ClusterOptions options) {
  r.expect("CLUSTERER");
  r.expect(tag);
  const std::size_t set_count = r.count(8);      // "SET <id> <n>\n"
  const std::size_t cluster_count = r.count(8);  // "POS <id> <x>\n"
  require(cluster_count > 0 && set_count >= cluster_count,
          "implausible clusterer sizes");

  ml::ClusterResult result;
  result.cluster_count = static_cast<int>(cluster_count);
  result.positions.assign(cluster_count, 0.0);
  for (std::size_t i = 0; i < cluster_count; ++i) {
    r.expect("POS");
    const auto id = static_cast<std::size_t>(r.integer());
    require(id < cluster_count, "POS id out of range");
    result.positions[id] = r.real();
  }
  std::vector<ml::StringSet> sets;
  sets.reserve(set_count);
  result.assignment.reserve(set_count);
  for (std::size_t i = 0; i < set_count; ++i) {
    r.expect("SET");
    const auto id = r.integer();
    require(id >= 0 && static_cast<std::size_t>(id) < cluster_count,
            "SET cluster id out of range");
    result.assignment.push_back(static_cast<int>(id));
    const std::size_t members = r.count(2);
    ml::StringSet set;
    set.reserve(members);
    for (std::size_t m = 0; m < members; ++m) set.push_back(r.word());
    require(std::is_sorted(set.begin(), set.end()), "SET not sorted");
    sets.push_back(std::move(set));
  }
  // leaf_order is not needed for assignment/position lookups; store the
  // identity to keep the result internally consistent.
  result.leaf_order.resize(set_count);
  for (std::size_t i = 0; i < set_count; ++i) result.leaf_order[i] = i;
  return SetClusterer::from_state(options, std::move(sets),
                                  std::move(result));
}

/// Parses everything after the magic line (OPTIONS..END). Shared by the
/// v1/v2 token-stream path and the v3 path (which feeds it the verified
/// concatenated block payloads).
Detector load_detector_body(Reader& r, bool allow_continual) {
  r.expect("OPTIONS");
  PreprocessOptions popt;
  popt.window = static_cast<std::size_t>(r.integer());
  require(popt.window >= 1, "bad window");
  popt.lib_clustering.cut_distance = r.real();
  popt.lib_clustering.gap_scale = r.real();
  popt.func_clustering.cut_distance = r.real();
  popt.func_clustering.gap_scale = r.real();

  SetClusterer libs = read_clusterer(r, "LIB", popt.lib_clustering);
  SetClusterer funcs = read_clusterer(r, "FUNC", popt.func_clustering);
  Preprocessor pre =
      Preprocessor::from_state(popt, std::move(libs), std::move(funcs));

  r.expect("SCALER");
  const std::size_t dims = r.count(4);  // a MIN and a RANGE value each
  require(dims % kFeaturesPerEvent == 0 &&
              dims / kFeaturesPerEvent == popt.window,
          "scaler dims disagree with window");
  std::vector<double> mins(dims);
  std::vector<double> ranges(dims);
  r.expect("MIN");
  for (double& v : mins) v = r.real();
  r.expect("RANGE");
  for (double& v : ranges) v = r.real();
  ml::MinMaxScaler scaler =
      ml::MinMaxScaler::from_state(std::move(mins), std::move(ranges));

  r.expect("SVM");
  ml::KernelParams kernel;
  const std::string kernel_name = r.word();
  if (kernel_name != "gaussian") {
    throw PersistError("unknown kernel '" + kernel_name + "'");
  }
  kernel.sigma2 = r.real();
  require(kernel.sigma2 > 0.0, "bad sigma2");
  r.integer();  // legacy polynomial degree, unused
  r.real();     // legacy polynomial offset, unused
  const double bias = r.real();
  const std::size_t sv_count = r.count(5);  // "SV <coef>\n" at least
  const auto sv_dims = static_cast<std::size_t>(r.integer());
  require(sv_count == 0 || sv_dims == dims, "SV dims disagree with scaler");
  std::vector<ml::FeatureVector> svs;
  std::vector<double> coefs;
  svs.reserve(sv_count);
  coefs.reserve(sv_count);
  for (std::size_t i = 0; i < sv_count; ++i) {
    r.expect("SV");
    coefs.push_back(r.real());
    ml::FeatureVector x(sv_dims);
    for (double& v : x) v = r.real();
    svs.push_back(std::move(x));
  }
  r.expect("THRESHOLD");
  const double threshold = r.real();

  // Optional continual-learning block between THRESHOLD and END (v2/v3).
  // A v1 file goes straight to END and yields a detector without the
  // state — the cold-start fallback for pre-online-learning model files.
  std::optional<ContinualState> continual;
  std::string tail = r.word();
  if (tail == "CONTINUAL") {
    require(allow_continual, "CONTINUAL block in a v1 file");
    ContinualState cs;
    // Files written before the state recorded its λ go straight to CFG
    // and keep the default.
    std::string word = r.word();
    if (word == "LAMBDA") {
      cs.lambda = r.real();
      require(cs.lambda > 0.0 && std::isfinite(cs.lambda),
              "LAMBDA must be positive and finite");
      word = r.word();
    }
    require(word == "CFG", "expected 'CFG', got '" + word + "'");
    const auto edges = static_cast<std::size_t>(r.integer());
    for (std::size_t e = 0; e < edges; ++e) {
      r.expect("E");
      const auto from = static_cast<std::uint64_t>(r.integer());
      const auto to = static_cast<std::uint64_t>(r.integer());
      cs.benign_cfg.add_edge(from, to);
    }
    require(cs.benign_cfg.edge_count() == edges,
            "CONTINUAL CFG edge count disagrees (duplicate edges?)");
    r.expect("TRAINSET");
    const std::size_t rows = r.count(10);  // "ROW <y> <c> <alpha>\n"
    const auto row_dims = static_cast<std::size_t>(r.integer());
    require(rows == 0 || row_dims == dims,
            "TRAINSET dims disagree with scaler");
    cs.alpha.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      r.expect("ROW");
      const auto label = static_cast<int>(r.integer());
      require(label == 1 || label == -1, "ROW label must be +/-1");
      const double w = r.real();
      require(w >= 0.0 && w <= 1.0, "ROW weight outside [0,1]");
      const double a = r.real();
      require(a >= 0.0, "ROW alpha must be >= 0");
      ml::FeatureVector x(row_dims);
      for (double& v : x) v = r.real();
      cs.train.add(std::move(x), label, w);
      cs.alpha.push_back(a);
    }
    continual = std::move(cs);
    tail = r.word();
  }
  require(tail == "END", "expected 'END', got '" + tail + "'");

  ml::SvmModel model(std::move(svs), std::move(coefs), bias, kernel);
  Detector detector(std::move(pre), std::move(scaler), std::move(model));
  detector.set_decision_threshold(threshold);
  if (continual.has_value()) detector.set_continual(*std::move(continual));
  return detector;
}

/// v3: verify every BLOCK's CRC32C before parsing a single token, then
/// parse the concatenated payloads with the shared body parser. Every
/// failure names the damaged block and the byte offset of the damage.
Detector load_detector_v3(std::istream& is) {
  std::string body;
  for (;;) {
    const std::size_t line_offset = util::stream_offset(is);
    std::string line;
    if (!std::getline(is, line)) {
      throw PersistError("truncated v3 file: missing END at byte offset " +
                         std::to_string(line_offset));
    }
    if (line == "END") break;
    std::istringstream header(line);
    std::string keyword;
    std::string name;
    unsigned long long nbytes = 0;
    std::string crc_hex;
    if (!(header >> keyword >> name >> nbytes >> crc_hex) ||
        keyword != "BLOCK") {
      throw PersistError("bad v3 block header at byte offset " +
                         std::to_string(line_offset) + ": '" + line + "'");
    }
    require(nbytes <= kMaxBlockBytes,
            "implausible block size in '" + name + "'");
    const util::StatusOr<std::string> block =
        util::read_framed(is, nbytes, crc_hex);
    if (!block.ok()) {
      throw PersistError("block '" + name + "' " + block.status().message());
    }
    body += *block;
  }
  // Every block's CRC checked out; parse the concatenation as one v2-style
  // body with the END sentinel the framing made redundant.
  body += "END\n";
  Reader r(std::move(body));
  return load_detector_body(r, /*allow_continual=*/true);
}

}  // namespace

void save_detector(const Detector& detector, std::ostream& os) {
  const Preprocessor& pre = detector.preprocessor();
  require(pre.fitted(), "detector preprocessor not fitted");
  const ContinualState* cs = detector.continual();
  if (cs != nullptr) {
    require(cs->alpha.size() == cs->train.size(),
            "continual state: alpha size disagrees with training set");
  }

  // Render each section once, frame it with size + CRC32C. The body
  // parser's END sentinel is supplied by the loader after it verifies and
  // concatenates the payloads; the outer END terminates the block stream.
  const auto render = [](const std::function<void(std::ostream&)>& fn) {
    std::ostringstream section;
    section << std::setprecision(17);
    fn(section);
    return std::move(section).str();
  };
  os << kMagic << ' ' << kVersionV3 << '\n';
  write_block(os, "OPTIONS",
              render([&](std::ostream& s) { write_options(s, pre.options()); }));
  write_block(os, "LIB", render([&](std::ostream& s) {
                write_clusterer(s, "LIB", pre.lib_clusterer());
              }));
  write_block(os, "FUNC", render([&](std::ostream& s) {
                write_clusterer(s, "FUNC", pre.func_clusterer());
              }));
  write_block(os, "SCALER", render([&](std::ostream& s) {
                write_scaler(s, detector.scaler());
              }));
  write_block(os, "SVM",
              render([&](std::ostream& s) { write_svm(s, detector); }));
  if (cs != nullptr) {
    write_block(os, "CONTINUAL", render([&](std::ostream& s) {
                  write_continual(s, *cs);
                }));
  }
  os << "END\n";
  require(static_cast<bool>(os), "write failure");
}

Detector load_detector(std::istream& is) {
  std::string magic_line;
  require(static_cast<bool>(std::getline(is, magic_line)),
          "unexpected end of input");
  std::istringstream header(magic_line);
  std::string magic;
  std::string version;
  require(static_cast<bool>(header >> magic) && magic == kMagic,
          "expected '" + std::string(kMagic) + "', got '" + magic + "'");
  require(static_cast<bool>(header >> version),
          "missing version after magic");
  if (version == kVersionV3) return load_detector_v3(is);
  require(version == kVersionV1 || version == kVersionV2,
          "unsupported version '" + version + "'");
  Reader r(std::string(std::istreambuf_iterator<char>(is), {}));
  return load_detector_body(r, /*allow_continual=*/version == kVersionV2);
}

void save_detector_file(const Detector& detector, const std::string& path) {
  const util::Status status = util::atomic_write_file(
      path, [&](std::ostream& os) { save_detector(detector, os); });
  if (!status.ok()) {
    throw PersistError("atomic save of " + path + " failed: " +
                       status.to_string());
  }
}

Detector load_detector_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw PersistError("cannot open: " + path);
  return load_detector(is);
}

}  // namespace leaps::core
