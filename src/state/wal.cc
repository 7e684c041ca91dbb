#include "state/wal.h"

#include <chrono>
#include <utility>

#include "obs/instruments.h"
#include "state/frame.h"
#include "state/serde.h"

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace onesql {
namespace state {

namespace {

constexpr char kWalMagic[] = "1SQLWAL1";  // 8 bytes, excluding the NUL
constexpr uint64_t kWalVersion = 1;

std::string EncodeHeader() {
  Writer w;
  w.PutBytes(std::string_view(kWalMagic, 8));
  w.PutVarint(kWalVersion);
  return w.TakeBuffer();
}

Status CheckHeader(std::string_view payload) {
  if (payload.size() < 8 ||
      std::string_view(payload.data(), 8) != std::string_view(kWalMagic, 8)) {
    return Status::DataLoss("not a feed log: bad magic in header frame");
  }
  Reader body(std::string_view(payload.data() + 8, payload.size() - 8));
  ONESQL_ASSIGN_OR_RETURN(uint64_t version, body.ReadVarint());
  if (version != kWalVersion) {
    return Status::DataLoss("unsupported feed log format version " +
                            std::to_string(version));
  }
  ONESQL_RETURN_NOT_OK(body.ExpectEnd());
  return Status::OK();
}

std::string EncodeRecord(const WalRecord& record) {
  Writer w;
  w.PutVarint(record.seq);
  w.PutU8(static_cast<uint8_t>(record.kind));
  w.PutString(record.source);
  w.PutTimestamp(record.ptime);
  if (record.kind == WalRecord::Kind::kWatermark) {
    w.PutTimestamp(record.watermark);
  } else {
    w.PutRow(record.row);
  }
  return w.TakeBuffer();
}

Result<WalRecord> DecodeRecord(std::string_view payload) {
  Reader r(payload);
  WalRecord rec;
  ONESQL_ASSIGN_OR_RETURN(rec.seq, r.ReadVarint());
  ONESQL_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > static_cast<uint8_t>(WalRecord::Kind::kWatermark)) {
    return Status::DataLoss("unknown record kind " + std::to_string(kind) +
                            " in feed log");
  }
  rec.kind = static_cast<WalRecord::Kind>(kind);
  ONESQL_ASSIGN_OR_RETURN(rec.source, r.ReadString());
  ONESQL_ASSIGN_OR_RETURN(rec.ptime, r.ReadTimestamp());
  if (rec.kind == WalRecord::Kind::kWatermark) {
    ONESQL_ASSIGN_OR_RETURN(rec.watermark, r.ReadTimestamp());
  } else {
    ONESQL_ASSIGN_OR_RETURN(rec.row, r.ReadRow());
  }
  ONESQL_RETURN_NOT_OK(r.ExpectEnd());
  return rec;
}

int FsyncFile(std::FILE* f) {
#ifdef _WIN32
  return _commit(_fileno(f));
#else
  return ::fsync(fileno(f));
#endif
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// Validates a whole log file and decodes its records. `records` may be null
/// when only the tail sequence number is wanted.
Result<uint64_t> ValidateLog(const std::string& path,
                             std::vector<WalRecord>* records) {
  ONESQL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  const char* p = data.data();
  const char* end = p + data.size();
  ONESQL_ASSIGN_OR_RETURN(std::string_view header, ReadFrame(&p, end));
  ONESQL_RETURN_NOT_OK(CheckHeader(header));
  uint64_t next_seq = 0;
  while (p != end) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view payload, ReadFrame(&p, end));
    ONESQL_ASSIGN_OR_RETURN(WalRecord rec, DecodeRecord(payload));
    if (rec.seq != next_seq) {
      return Status::DataLoss(
          "feed log sequence gap: expected record " +
          std::to_string(next_seq) + ", found " + std::to_string(rec.seq));
    }
    ++next_seq;
    if (records != nullptr) records->push_back(std::move(rec));
  }
  return next_seq;
}

}  // namespace

FeedLog::~FeedLog() {
  if (file_ != nullptr) {
    (void)Close();
  }
}

FeedLog::FeedLog(FeedLog&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      next_seq_(other.next_seq_),
      dirty_(other.dirty_),
      metrics_(other.metrics_) {
  other.file_ = nullptr;
  other.dirty_ = false;
  other.metrics_ = nullptr;
}

FeedLog& FeedLog::operator=(FeedLog&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) (void)Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    next_seq_ = other.next_seq_;
    dirty_ = other.dirty_;
    metrics_ = other.metrics_;
    other.file_ = nullptr;
    other.dirty_ = false;
    other.metrics_ = nullptr;
  }
  return *this;
}

Result<FeedLog> FeedLog::Open(const std::string& path) {
  FeedLog log;
  log.path_ = path;
  if (FileExists(path)) {
    // Validate the whole existing file before trusting its tail position.
    ONESQL_ASSIGN_OR_RETURN(log.next_seq_, ValidateLog(path, nullptr));
    log.file_ = std::fopen(path.c_str(), "ab");
    if (log.file_ == nullptr) {
      return Status::InvalidArgument("cannot open feed log '" + path +
                                     "' for appending");
    }
  } else {
    log.file_ = std::fopen(path.c_str(), "wb");
    if (log.file_ == nullptr) {
      return Status::InvalidArgument("cannot create feed log '" + path + "'");
    }
    std::string header;
    AppendFrame(&header, EncodeHeader());
    if (std::fwrite(header.data(), 1, header.size(), log.file_) !=
        header.size()) {
      return Status::DataLoss("failed to write feed log header to '" + path +
                              "'");
    }
    log.dirty_ = true;
    ONESQL_RETURN_NOT_OK(log.Sync());
    // The freshly created file's directory entry must be durable too, or a
    // crash right after "durability enabled" can leave no log at all.
    ONESQL_RETURN_NOT_OK(FsyncParentDir(path));
  }
  return log;
}

Result<std::vector<WalRecord>> FeedLog::ReadAll(const std::string& path) {
  std::vector<WalRecord> records;
  ONESQL_RETURN_NOT_OK(ValidateLog(path, &records).status());
  return records;
}

Status FeedLog::Append(const WalRecord& record) {
  if (file_ == nullptr) {
    return Status::Internal("feed log is not open");
  }
  if (record.seq != next_seq_) {
    return Status::Internal("feed log append out of order: expected seq " +
                            std::to_string(next_seq_) + ", got " +
                            std::to_string(record.seq));
  }
  std::string frame;
  AppendFrame(&frame, EncodeRecord(record));
  const uint64_t start = metrics_ != nullptr ? MonotonicMicros() : 0;
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::DataLoss("failed to append to feed log '" + path_ + "'");
  }
  if (metrics_ != nullptr) {
    metrics_->append_latency_us->Record(MonotonicMicros() - start);
    metrics_->appends->Increment();
    metrics_->bytes_written->Add(frame.size());
  }
  ++next_seq_;
  dirty_ = true;
  return Status::OK();
}

Status FeedLog::Sync() {
  if (file_ == nullptr) {
    return Status::Internal("feed log is not open");
  }
  if (!dirty_) return Status::OK();
  const uint64_t start = metrics_ != nullptr ? MonotonicMicros() : 0;
  if (std::fflush(file_) != 0 || FsyncFile(file_) != 0) {
    return Status::DataLoss("failed to sync feed log '" + path_ + "'");
  }
  if (metrics_ != nullptr) {
    metrics_->sync_latency_us->Record(MonotonicMicros() - start);
    metrics_->syncs->Increment();
  }
  dirty_ = false;
  return Status::OK();
}

Status FeedLog::Close() {
  if (file_ == nullptr) return Status::OK();
  Status sync = dirty_ ? Sync() : Status::OK();
  std::fclose(file_);
  file_ = nullptr;
  dirty_ = false;
  return sync;
}

// ---------------------------------------------------------------------------
// GroupCommitLog
// ---------------------------------------------------------------------------

Result<std::unique_ptr<GroupCommitLog>> GroupCommitLog::Open(
    const std::string& path) {
  ONESQL_ASSIGN_OR_RETURN(FeedLog log, FeedLog::Open(path));
  return std::unique_ptr<GroupCommitLog>(new GroupCommitLog(std::move(log)));
}

GroupCommitLog::GroupCommitLog(FeedLog log) : log_(std::move(log)) {
  path_ = log_.path();
  enqueued_seq_ = log_.next_seq();
  durable_seq_ = log_.next_seq();
  appender_ = std::thread([this] { AppenderLoop(); });
}

GroupCommitLog::~GroupCommitLog() { (void)Close(); }

Status GroupCommitLog::Append(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("group-commit log is closed");
  if (!error_.ok()) return error_;
  if (record.seq != enqueued_seq_) {
    return Status::Internal("feed log append out of order: expected seq " +
                            std::to_string(enqueued_seq_) + ", got " +
                            std::to_string(record.seq));
  }
  // No wake-up here: the records of one caller stay pending together until
  // it waits for them, so one Engine::Feed call is one fsync group.
  pending_.push_back(std::move(record));
  ++enqueued_seq_;
  return Status::OK();
}

Status GroupCommitLog::WaitDurable(uint64_t up_to_seq) {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_one();
  const obs::WalMetrics* metrics = metrics_;
  const uint64_t start = metrics != nullptr ? MonotonicMicros() : 0;
  durable_cv_.wait(
      lock, [&] { return durable_seq_ >= up_to_seq || !error_.ok(); });
  Status result = error_;
  lock.unlock();
  if (metrics != nullptr) {
    metrics->group_wait_us->Record(MonotonicMicros() - start);
  }
  return result;
}

Status GroupCommitLog::Sync() {
  uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = enqueued_seq_;
  }
  return WaitDurable(target);
}

Status GroupCommitLog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return error_;
    stop_ = true;
    work_cv_.notify_one();
  }
  if (appender_.joinable()) appender_.join();
  // The appender has exited; this thread owns the inner log now.
  Status close_status = log_.Close();
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok() && !close_status.ok()) error_ = close_status;
  durable_cv_.notify_all();
  return error_;
}

uint64_t GroupCommitLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_seq_;
}

void GroupCommitLog::AttachMetrics(const obs::WalMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  // The inner log picks the pointer up on the appender thread at the top of
  // its next group (it is the only thread touching log_ while running).
}

void GroupCommitLog::AppenderLoop() {
  std::vector<WalRecord> batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Swap out everything enqueued so far: records arriving while the
    // append+fsync below runs unlocked pile into the *next* group — that
    // accumulation is what amortizes the fsync across concurrent feeders.
    batch.clear();
    batch.swap(pending_);
    Status status = error_;
    const obs::WalMetrics* metrics = metrics_;
    log_.AttachMetrics(metrics);
    lock.unlock();
    if (status.ok()) {
      for (const WalRecord& record : batch) {
        status = log_.Append(record);
        if (!status.ok()) break;
      }
      if (status.ok()) status = log_.Sync();
    }
    lock.lock();
    if (status.ok()) {
      durable_seq_ = batch.back().seq + 1;
      if (metrics != nullptr) {
        metrics->group_size->Record(batch.size());
      }
    } else if (error_.ok()) {
      error_ = status;
    }
    durable_cv_.notify_all();
  }
}

}  // namespace state
}  // namespace onesql
