#include "src/store/wal.h"

#include <unistd.h>

#include <fstream>

#include "src/store/format.h"

namespace stedb::store {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'E', 'D', 'B', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 16;
constexpr uint64_t kMaxDim = kMaxEmbeddingDim;

std::string WalHeader(size_t dim) {
  std::string h(kMagic, sizeof(kMagic));
  AppendU32(h, kVersion);
  AppendU32(h, static_cast<uint32_t>(dim));
  return h;
}

}  // namespace

Result<WalReplay> ReplayWalBytes(const std::string& bytes, int expect_dim) {
  ByteReader in(bytes);
  if (in.remaining() < kHeaderSize ||
      std::memcmp(in.cursor(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("wal: bad magic");
  }
  in.Skip(sizeof(kMagic));
  uint32_t version = 0, dim = 0;
  in.ReadU32(&version);
  in.ReadU32(&dim);
  if (version != kVersion) {
    return Status::InvalidArgument("wal: unsupported format version " +
                                   std::to_string(version));
  }
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("wal: implausible dimension");
  }
  if (expect_dim >= 0 && dim != static_cast<uint32_t>(expect_dim)) {
    return Status::InvalidArgument("wal: dimension mismatch with snapshot");
  }

  WalTail tail = ParseWalTail(in.cursor(), in.remaining(), dim);
  WalReplay replay;
  replay.records = std::move(tail.records);
  replay.valid_bytes = in.offset() + tail.consumed;
  replay.torn_tail = tail.torn;
  return replay;
}

WalTail ParseWalTail(const char* data, size_t size, size_t dim) {
  WalTail tail;
  ByteReader in(data, size);
  const uint32_t record_size = static_cast<uint32_t>(8 + dim * 8);
  while (in.remaining() > 0) {
    uint32_t rec_size = 0, crc = 0;
    if (!in.ReadU32(&rec_size) || !in.ReadU32(&crc) ||
        rec_size != record_size || in.remaining() < rec_size) {
      tail.torn = true;  // short or nonsense header: torn tail
      break;
    }
    const char* payload = in.cursor();
    if (Crc32(payload, rec_size) != crc) {
      tail.torn = true;  // partially written payload
      break;
    }
    ByteReader rec(payload, rec_size);
    int64_t fact = -1;
    rec.ReadI64(&fact);
    WalRecord record;
    record.fact = static_cast<db::FactId>(fact);
    record.phi.resize(dim);
    for (double& x : record.phi) rec.ReadDouble(&x);
    tail.records.push_back(std::move(record));
    in.Skip(rec_size);
    tail.consumed = in.offset();
  }
  return tail;
}

Result<WalReplay> ReplayWal(const std::string& path, int expect_dim) {
  std::string bytes;
  STEDB_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return ReplayWalBytes(bytes, expect_dim);
}

Result<WalWriter> WalWriter::Open(const std::string& path, size_t dim) {
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("wal: implausible dimension");
  }
  // Append mode: an existing journal is preserved, a missing one created.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::IOError("cannot open wal " + path);
  // In append mode the initial position is implementation-defined; seek to
  // the end explicitly before asking whether the file is empty.
  long pos = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
  if (pos < 0) {
    std::fclose(f);
    return Status::IOError("cannot position wal " + path);
  }
  if (pos == 0) {
    const std::string header = WalHeader(dim);
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      return Status::IOError("cannot write wal header " + path);
    }
  } else {
    // Appending to an existing journal: its header dimension must match,
    // or the new records would read back as a torn tail and be silently
    // truncated away by the next recovery.
    std::string header(kHeaderSize, '\0');
    std::ifstream check(path, std::ios::binary);
    if (!check.read(&header[0], static_cast<std::streamsize>(kHeaderSize))) {
      std::fclose(f);
      return Status::InvalidArgument("wal: truncated header in " + path);
    }
    ByteReader in(header);
    uint32_t version = 0, header_dim = 0;
    if (std::memcmp(in.cursor(), kMagic, sizeof(kMagic)) != 0) {
      std::fclose(f);
      return Status::InvalidArgument("wal: bad magic in " + path);
    }
    in.Skip(sizeof(kMagic));
    in.ReadU32(&version);
    in.ReadU32(&header_dim);
    if (version != kVersion || header_dim != dim) {
      std::fclose(f);
      return Status::InvalidArgument(
          "wal: existing journal has version/dimension mismatch");
    }
  }
  return WalWriter(f, dim);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_),
      dim_(other.dim_),
      sync_count_(other.sync_count_),
      error_(std::move(other.error_)) {
  other.file_ = nullptr;
  other.sync_count_ = 0;
  other.error_ = Status::OK();
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    dim_ = other.dim_;
    sync_count_ = other.sync_count_;
    error_ = std::move(other.error_);
    other.file_ = nullptr;
    other.sync_count_ = 0;
    other.error_ = Status::OK();
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Fail(const char* message) {
  error_ = Status::IOError(message);
  return error_;
}

Status WalWriter::Append(db::FactId fact, const la::Vector& phi) {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (phi.size() != dim_) {
    return Status::InvalidArgument("wal: vector dimension mismatch");
  }
  std::string payload;
  payload.reserve(8 + dim_ * 8);
  AppendI64(payload, fact);
  for (double x : phi) AppendDouble(payload, x);
  std::string record;
  record.reserve(8 + payload.size());
  AppendU32(record, static_cast<uint32_t>(payload.size()));
  AppendU32(record, Crc32(payload.data(), payload.size()));
  record += payload;
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Fail("wal append failed");
  }
  // Hand the record to the OS right away: a killed *process* loses nothing
  // already appended (kill-safe). Surviving a killed *machine* needs the
  // fsync in Sync().
  if (std::fflush(file_) != 0) return Fail("wal append flush failed");
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Fail("wal sync failed");
  }
  ++sync_count_;
  return Status::OK();
}

Status WalWriter::Close() {
  if (file_ == nullptr) return error_;
  Status st = Sync();
  if (std::fclose(file_) != 0 && st.ok()) {
    st = Status::IOError("wal close failed");
  }
  file_ = nullptr;
  return st;
}

Status TruncateWal(const std::string& path, size_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IOError("cannot truncate wal " + path);
  }
  return Status::OK();
}

Status ResetWal(const std::string& path, size_t dim) {
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("wal: implausible dimension");
  }
  return AtomicWriteFile(path, WalHeader(dim));
}

}  // namespace stedb::store
