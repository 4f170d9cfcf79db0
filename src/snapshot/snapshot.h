// Versioned, byte-stable snapshot format (LMSNAP1) and the field-level
// transaction layer components use to enumerate their mutable state
// (DESIGN.md §13).
//
// A snapshot is a flat record stream:
//
//   magic "LMSNAP1\0" | u32 version | records... | u8 kEndOfStream | u64 fnv
//
// where each record is
//
//   u8 kind | u16 name_len | name bytes | payload
//
// with kind one of kSection (payload empty; scopes the fields that follow
// until the matching kEndSection), kU64/kI64/kF64 (8-byte little-endian
// payload; doubles are bit-cast so the round trip is exact), or kBytes
// (u64 length + raw bytes).  The trailing checksum covers every byte before
// it, so truncation and corruption are both detected at parse time. Its
// algorithm is version-keyed: v1 blobs carry plain FNV-1a; v2+ blobs carry
// an 8-lane FNV-1a (byte j feeds lane j%8, lanes folded in order) whose
// independent multiply chains pipeline ~4x faster — direct-boot restore
// checksums the whole blob on the critical path, so this is wall-clock that
// scales with state size, not a cosmetic change.
//
// Components expose one method:
//
//   void Snapshot(SnapshotTx& tx);
//
// and the SAME traversal serves three modes:
//
//   kWrite  — serialize: each call appends a record.
//   kVerify — compare: each call reads the next record and accumulates a
//             human-readable mismatch string when name/type/value differ
//             (never CHECKs — callers want the full diff).
//   kAdopt  — restore: each call reads the next record and assigns the
//             value through the pointer.  Digest fields (which summarize
//             state that cannot be re-seated field-by-field) are read and
//             skipped in this mode.
//
// Because every mode walks fields in the identical order, byte stability
// of the format is exactly stability of the components' field enumeration.
#ifndef LAMINAR_SNAPSHOT_SNAPSHOT_H_
#define LAMINAR_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace laminar {

inline constexpr char kSnapshotMagic[8] = {'L', 'M', 'S', 'N', 'A', 'P', '1', '\0'};
// v1: digest-anchored blobs (restore verifies a replayed run field by field).
// v2: full-state blobs — the simulator serializes its live event heap as
// reconstructible continuation descriptors (event_heap section) and every
// component serializes adoptable state, so a restore boots directly from
// the blob.
// v3: the partial_pool section lists live entries in ascending TrajId, the
// canonical recovery order, and drops v2's hash-table bucket count and
// order-witness digest.
// Every version still parses (SnapshotReader accepts [v1, v3]), but only
// the current layout can drive a direct boot or a verify: the driver
// refuses an older blob by its version instead of walking a layout it was
// not written in.
inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr uint32_t kSnapshotMinVersion = 1;

// Record kinds in the LMSNAP1 stream.
enum class SnapshotRecordKind : uint8_t {
  kEndOfStream = 0,
  kSection = 1,
  kEndSection = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kBytes = 6,
};

// Appends records; Finish() seals the stream with the end marker and
// checksum and returns the complete byte string.
class SnapshotWriter {
 public:
  // `version` is stamped into the header; anything in
  // [kSnapshotMinVersion, kSnapshotVersion] is accepted (older versions
  // exist so tests can author v1 fixtures).
  explicit SnapshotWriter(uint32_t version = kSnapshotVersion);

  void BeginSection(const std::string& name);
  void EndSection();
  void U64(const std::string& name, uint64_t v);
  void I64(const std::string& name, int64_t v);
  void F64(const std::string& name, double v);
  void Bytes(const std::string& name, const std::string& v);

  // Seals and returns the snapshot. The writer must not be reused after.
  std::string Finish();

 private:
  void Record(SnapshotRecordKind kind, const std::string& name);
  std::string out_;
  uint32_t version_;
  bool finished_ = false;
};

// One parsed record. `name` and `bytes` are views into the string handed to
// SnapshotReader::Parse — zero-copy, so a multi-megabyte blob parses without
// duplicating its payloads — which means the parsed string must outlive any
// use of the reader's records.
struct SnapshotRecord {
  SnapshotRecordKind kind;
  std::string_view name;
  uint64_t u64 = 0;        // also holds the bit pattern for kI64/kF64
  std::string_view bytes;  // kBytes payload
};

// Validates magic/version/checksum and yields records in stream order.
// Records alias the parsed string (see SnapshotRecord); callers keep `data`
// alive while the reader is in use.
class SnapshotReader {
 public:
  // Parses `data`; on failure returns false and sets *error.
  bool Parse(const std::string& data, std::string* error);

  bool AtEnd() const { return pos_ >= records_.size(); }
  // Returns the next record, or nullptr past the end.
  const SnapshotRecord* Next();
  const SnapshotRecord* Peek() const;
  const std::vector<SnapshotRecord>& records() const { return records_; }
  // Header version of the last successful Parse().
  uint32_t version() const { return version_; }

 private:
  std::vector<SnapshotRecord> records_;
  size_t pos_ = 0;
  uint32_t version_ = 0;
};

enum class SnapshotMode { kWrite, kVerify, kAdopt };

// The transaction components snapshot against.  See the file comment for
// the three-mode contract.
class SnapshotTx {
 public:
  explicit SnapshotTx(SnapshotWriter* writer)
      : mode_(SnapshotMode::kWrite), writer_(writer) {}
  SnapshotTx(SnapshotReader* reader, SnapshotMode mode)
      : mode_(mode), reader_(reader) {}

  SnapshotMode mode() const { return mode_; }
  bool writing() const { return mode_ == SnapshotMode::kWrite; }
  bool adopting() const { return mode_ == SnapshotMode::kAdopt; }

  void Begin(const std::string& section);
  void End();

  // Read-write fields: serialized, verified, and adopted.
  void U64(const std::string& name, uint64_t* v);
  void I64(const std::string& name, int64_t* v);
  void F64(const std::string& name, double* v);
  void Bytes(const std::string& name, std::string* v);
  // Adopt-only zero-copy read of a kBytes record: the returned view aliases
  // the reader's parsed buffer (keep it alive while decoding). Consumes the
  // same record position as Bytes(); empty view + mismatch when absent.
  std::string_view BytesView(const std::string& name);

  // Convenience wrappers for narrower integer types: widen through a
  // temporary so callers keep their natural field types.
  template <typename T>
  void U64As(const std::string& name, T* v) {
    uint64_t tmp = static_cast<uint64_t>(*v);
    U64(name, &tmp);
    if (adopting()) *v = static_cast<T>(tmp);
  }
  template <typename T>
  void I64As(const std::string& name, T* v) {
    int64_t tmp = static_cast<int64_t>(*v);
    I64(name, &tmp);
    if (adopting()) *v = static_cast<T>(tmp);
  }
  void Bool(const std::string& name, bool* v) {
    uint64_t tmp = *v ? 1 : 0;
    U64(name, &tmp);
    if (adopting()) *v = tmp != 0;
  }
  // A vector<double> packed into one kBytes record (bit-cast, so exact).
  void F64Vec(const std::string& name, std::vector<double>* v);

  // Digest fields: summaries of state that cannot be assigned back
  // field-by-field (hashes, counts over live structures).  Written and
  // verified like values; in kAdopt mode the record is read and skipped.
  void DigestU64(const std::string& name, uint64_t v);
  void DigestI64(const std::string& name, int64_t v);
  void DigestF64(const std::string& name, double v);
  void DigestBytes(const std::string& name, const std::string& v);

  // Verify-mode results.
  bool ok() const { return mismatches_.empty(); }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  // Fetches the next record and checks kind/name; returns nullptr (with a
  // mismatch recorded) when the stream disagrees with the traversal.
  const SnapshotRecord* Expect(SnapshotRecordKind kind, const std::string& name);
  void Mismatch(const std::string& detail);
  std::string Scope(const std::string& name) const;

  SnapshotMode mode_;
  SnapshotWriter* writer_ = nullptr;
  SnapshotReader* reader_ = nullptr;
  std::vector<std::string> sections_;
  std::vector<std::string> mismatches_;
};

// FNV-1a over a byte range (the same hash the trace/fingerprint layers use;
// duplicated here so laminar_snapshot stays dependency-light).
uint64_t SnapshotFnv1a(const void* data, size_t n, uint64_t seed = 1469598103934665603ull);

// Bit-cast helpers shared by the writer/reader and by components that fold
// doubles into digests.
inline uint64_t SnapshotF64Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}
inline double SnapshotBitsF64(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Warm-start snapshot files (laminar_fuzz --snapshot-out / --restore-from):
// an outer LMSNAP1 stream with one "snapshot-file" section carrying the
// scenario text, the snapshot time, and the inner driver-level snapshot
// blob. Decoding also parses the blob and refuses one that is corrupt or not
// the current kSnapshotVersion.
struct SnapshotFile {
  std::string scenario_text;
  double snapshot_at = 0.0;
  std::string blob;
};

std::string EncodeSnapshotFile(const SnapshotFile& file);
bool DecodeSnapshotFile(const std::string& data, SnapshotFile* out, std::string* error);

}  // namespace laminar

#endif  // LAMINAR_SNAPSHOT_SNAPSHOT_H_
