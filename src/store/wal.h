#ifndef STEDB_STORE_WAL_H_
#define STEDB_STORE_WAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/la/matrix.h"

namespace stedb::store {

/// Append-only journal of dynamic extension records.
///
/// File layout (little-endian):
///
///   [0..8)    magic "STEDBWAL"
///   [8..12)   u32 format version (currently 1)
///   [12..16)  u32 embedding dimension (every record must match)
///   records, each:
///     u32 payload_size   always 8 + dim*8
///     u32 crc32          of the payload bytes
///     payload            i64 fact_id, dim doubles
///
/// The 16-byte header and 8-byte record headers keep every φ payload on an
/// 8-byte file offset. A record is durable iff its full payload and a
/// matching CRC are on disk; replay stops at the first record that is
/// short, oversized or checksum-corrupt and reports the clean prefix
/// length so the caller can truncate the torn tail instead of failing.
/// Size of the file header (magic + version + dim) preceding the records.
constexpr size_t kWalHeaderBytes = 16;

struct WalRecord {
  db::FactId fact = -1;
  la::Vector phi;
};

struct WalReplay {
  std::vector<WalRecord> records;  ///< the durable prefix, in append order
  size_t valid_bytes = 0;          ///< header + clean records
  bool torn_tail = false;          ///< trailing garbage was skipped
};

/// Parses a WAL byte buffer. Only unrecoverable states (bad magic/version,
/// header dim mismatch with `expect_dim` when >= 0) are errors; a torn
/// tail is a *successful* replay with `torn_tail` set.
Result<WalReplay> ReplayWalBytes(const std::string& bytes, int expect_dim);

/// One parsed chunk of a headerless WAL byte range — a tail that begins at
/// a record boundary, as produced by reading the journal from a previously
/// consumed offset. For a tailing reader (api::ServingSession::Poll) a
/// torn tail is not an error: the writer may be mid-append, and the bytes
/// after `consumed` can become a complete record by the next read.
struct WalTail {
  std::vector<WalRecord> records;  ///< the clean records, in append order
  size_t consumed = 0;             ///< bytes the clean records occupy
  bool torn = false;               ///< trailing bytes were not a clean record
};

/// Parses records (no file header) of dimension `dim` from a byte range.
WalTail ParseWalTail(const char* data, size_t size, size_t dim);

/// Reads and replays a WAL file.
Result<WalReplay> ReplayWal(const std::string& path, int expect_dim);

/// Appending writer. One writer owns the file at a time. Append hands each
/// record to the OS immediately (fflush — durable against a killed
/// process); Sync() additionally forces the disk cache (fsync — durable
/// against a killed machine).
///
/// I/O errors are sticky: the first failed fwrite/fflush/fsync is stored,
/// and every later Append, Sync and Close returns it until a new writer is
/// opened. A failed write can leave a torn record that replay stops at, so
/// acknowledging anything appended after it would be a lie; and a failed
/// fsync is never retried, since the kernel may already have dropped the
/// dirty pages it could not write.
class WalWriter {
 public:
  /// Opens `path` for appending, writing the 16-byte header when the file
  /// is new or empty. An existing header must match `dim`.
  static Result<WalWriter> Open(const std::string& path, size_t dim);

  /// On-disk bytes of one record of dimension `dim` (u32 size + u32 crc +
  /// i64 fact_id + dim doubles). The single source of truth for byte
  /// accounting — group-commit windows, benches, tests.
  static constexpr size_t RecordBytes(size_t dim) { return 16 + dim * 8; }

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record; `phi.size()` must equal the writer's dimension.
  Status Append(db::FactId fact, const la::Vector& phi);

  /// fflush + fsync; after an OK return every appended record is durable.
  Status Sync();

  /// Flushes, syncs and closes the file (after a stored error: closes
  /// without syncing and returns that error). Further Appends fail.
  Status Close();

  size_t dim() const { return dim_; }

  /// fsyncs issued by this writer so far (survives Close) — the group-
  /// commit accounting the store and bench read.
  uint64_t sync_count() const { return sync_count_; }

 private:
  WalWriter(std::FILE* file, size_t dim) : file_(file), dim_(dim) {}

  /// Stores `message` as the sticky error and returns it.
  Status Fail(const char* message);

  std::FILE* file_ = nullptr;
  size_t dim_ = 0;
  uint64_t sync_count_ = 0;
  Status error_;  ///< first I/O failure; OK while the writer is healthy
};

/// Truncates `path` to `valid_bytes`, discarding a torn tail found by
/// replay.
Status TruncateWal(const std::string& path, size_t valid_bytes);

/// Writes a fresh, empty WAL (header only) at `path`, atomically replacing
/// any previous journal. Used by compaction after the snapshot rename.
Status ResetWal(const std::string& path, size_t dim);

}  // namespace stedb::store

#endif  // STEDB_STORE_WAL_H_
