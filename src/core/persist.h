// Detector persistence: save a trained Detector (preprocessor clustering
// state + feature scaler + SVM model) to a versioned format and load it
// back — train once on a controlled host, deploy the classifier against
// production logs elsewhere (the paper's deployment story for the Testing
// Phase).
//
// Body sketch, the whole of a v1/v2 file (all tokens whitespace-separated,
// doubles in %.17g):
//   LEAPS-DETECTOR v2
//   OPTIONS window=10 lib_cut=0.3 func_cut=0.35 lib_gap=10 func_gap=10
//   CLUSTERER LIB <unique_sets> <clusters>
//   SET <cluster_id> <position> <n> <member>...
//   ...
//   CLUSTERER FUNC ...
//   SCALER <dims>
//   MIN <v>... / RANGE <v>...
//   SVM gaussian <sigma2> 3 1 <bias> <sv_count> <dims>
//   SV <coef> <x>...
//   THRESHOLD <t>
//   CONTINUAL            (v2 and v3, optional — continual-learning state)
//   LAMBDA <λ>           (optional; a block without it loads as λ = 10)
//   CFG <edge_count>
//   E <from> <to>...
//   TRAINSET <n> <dims>
//   ROW <y> <c> <alpha> <x>...
//   END
//
// v3 wraps the same section texts in checksummed blocks so a torn or
// bit-flipped file is *detected* instead of mis-parsed:
//   LEAPS-DETECTOR v3
//   BLOCK <name> <payload_bytes> <crc32c-hex>
//   <payload bytes, newline-terminated>
//   ... (OPTIONS, LIB, FUNC, SCALER, SVM, optional CONTINUAL)
//   END
// The loader verifies every block CRC before parsing a single token and
// reports failures as PersistError with the exact byte offset of the
// damage ("block 'SVM' truncated", "checksum mismatch", "missing END").
//
// The SVM line's kernel name is always `gaussian`, and `3 1` are the
// legacy degree and offset fields of a retired polynomial kernel: written
// unchanged and skipped on load. Any other kernel name is a PersistError.
//
// Version compatibility: the writer emits v3 only; v1 (pre-online-learning)
// and v2 files still load. v1 carries no CONTINUAL block, so
// Detector::continual() is null and retraining falls back to a cold start.
// A v2 file is exactly "LEAPS-DETECTOR v2\n", the concatenated v3 block
// payloads, and "END\n".
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "core/pipeline.h"

namespace leaps::core {

class PersistError : public std::runtime_error {
 public:
  explicit PersistError(const std::string& what)
      : std::runtime_error("detector persistence: " + what) {}
};

/// Serializes a trained detector as v3. Throws PersistError on
/// unserializable state (e.g. set members containing whitespace).
void save_detector(const Detector& detector, std::ostream& os);

/// Deserializes any supported version (v1/v2/v3); throws PersistError on
/// malformed or version-mismatched input. v3 errors carry byte offsets.
Detector load_detector(std::istream& is);

/// File-path wrappers. Saving goes through util::atomic_write_file
/// (temp + fsync + rename): a crash mid-save can never leave a
/// half-written model at `path`. Both throw PersistError on I/O failure.
void save_detector_file(const Detector& detector, const std::string& path);
Detector load_detector_file(const std::string& path);

}  // namespace leaps::core
