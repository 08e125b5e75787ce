#ifndef TRACLUS_TRAJ_SOURCE_H_
#define TRACLUS_TRAJ_SOURCE_H_

// TrajectorySource: the pull-based ingest API.
//
// The eager entry points (ReadCsv → TrajectoryDatabase → engine->Run(db))
// require the whole input resident before the first MDL partition runs. A
// TrajectorySource inverts that: the consumer pulls one trajectory at a time,
// so the streaming pipeline mode (core::TraclusEngine::Run(TrajectorySource&))
// can partition each trajectory on arrival and append its segments straight
// into the chunked segment store — the full TrajectoryDatabase is never
// materialized. The eager readers are thin wrappers that drain a source into
// a database (DrainToDatabase), so both paths share one parser and one error
// contract.
//
// Error contract: Next() returns a typed Status for malformed input — the
// CSV sources surface exactly the messages the historical ParseCsv produced,
// byte-for-byte, including the offending line number. A failed source stays
// failed: every later Next() repeats the same status, and no partial
// trajectory is ever handed out past an error.

#include <cstdint>
#include <istream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>

#include "common/result.h"
#include "common/status.h"
#include "geom/point.h"
#include "traj/trajectory.h"
#include "traj/trajectory_database.h"

namespace traclus::traj {

/// Largest accepted |x|, |y| or |z| of an external input (the CSV sources,
/// core::ClusterSnapshot::Load). The distance squares coordinate differences
/// and sums them over up to 3 dimensions; at this bound every difference is
/// at most 2e150, so every such sum stays below 1.3e301, far from overflow
/// (DBL_MAX ≈ 1.8e308). Weights are never squared and stay unbounded.
inline constexpr double kMaxCoordinate = 1e150;

/// Pull-based producer of trajectories — the ingest-side interface of the
/// streaming pipeline. Implementations yield each trajectory exactly once, in
/// input order; they are single-pass and not required to be rewindable.
class TrajectorySource {
 public:
  virtual ~TrajectorySource() = default;

  /// Pulls the next trajectory into `*out`. Returns true when one was
  /// produced, false at end of stream, or a non-OK status on malformed input
  /// (in which case `*out` is unspecified and every subsequent call returns
  /// the same status — a broken stream never resumes).
  virtual common::Result<bool> Next(Trajectory* out) = 0;

  /// Input line of the first row of the trajectory the last successful
  /// Next() produced, for diagnostics; 0 when the source has no lines.
  virtual size_t first_line() const { return 0; }
};

/// Streaming CSV parser over an externally owned std::istream (a file, a
/// string stream, or std::cin — the CLI's `-` input).
///
/// Accepts the schema of ReadCsv (csv_io.h): `trajectory_id,x,y[,z][,weight]`,
/// one point per row, rows of one trajectory contiguous, '#' comments, one
/// tolerated header row at line 1. The trajectory weight is taken from its
/// first row. Each trajectory is yielded as soon as the first row of the next
/// one (or end of input) is seen, so only one trajectory is ever buffered.
///
/// Malformed rows surface as InvalidArgument naming the line, with exactly
/// the historical ParseCsv messages: short rows, unparsable ids/coordinates/
/// weights, mixed 2-D/3-D rows, and a trajectory id reappearing after other
/// trajectories (rows of one trajectory must be contiguous).
class CsvStreamSource : public TrajectorySource {
 public:
  /// `in` must outlive the source.
  explicit CsvStreamSource(std::istream& in) : in_(&in) {}

  common::Result<bool> Next(Trajectory* out) override;

  size_t first_line() const override { return yielded_line_; }

  /// Number of input lines consumed so far (diagnostics).
  size_t lines_read() const { return line_no_; }

 private:
  // One parsed data row.
  struct Row {
    int64_t id = 0;
    geom::Point point;
    double weight = 1.0;
  };

  /// Reads lines until one parses as a data row. Returns true with the row in
  /// `*row`, false at end of input, or the typed parse error.
  common::Result<bool> NextRow(Row* row);

  std::istream* in_;
  size_t line_no_ = 0;
  int dims_ = 0;  // 0 = not yet determined (first data row decides).
  std::unordered_set<int64_t> finished_ids_;
  Trajectory current_;
  size_t current_line_ = 0;  // Line of current_'s first row.
  size_t yielded_line_ = 0;  // first_line().
  bool have_current_ = false;
  bool have_pending_ = false;
  Row pending_;  // First row of the next trajectory, parsed ahead.
  size_t pending_line_ = 0;
  bool done_ = false;
  common::Status failed_ = common::Status::OK();  // Sticky parse failure.
};

/// CSV source over an in-memory string (owns the underlying stream).
class CsvStringSource : public CsvStreamSource {
 public:
  explicit CsvStringSource(std::string content)
      : CsvStreamSource(stream_), stream_(std::move(content)) {}

 private:
  std::istringstream stream_;
};

/// CSV source over a file path (owns the underlying stream). Construction is
/// fallible — use Open(); an unreadable path is the same IOError ReadCsv
/// reports.
class CsvFileSource : public TrajectorySource {
 public:
  /// Opens `path`, or returns IOError("cannot open '<path>' for reading").
  static common::Result<std::unique_ptr<CsvFileSource>> Open(
      const std::string& path);

  common::Result<bool> Next(Trajectory* out) override { return csv_->Next(out); }

  size_t first_line() const override { return csv_->first_line(); }

 private:
  explicit CsvFileSource(std::unique_ptr<std::istream> stream)
      : stream_(std::move(stream)),
        csv_(std::make_unique<CsvStreamSource>(*stream_)) {}

  std::unique_ptr<std::istream> stream_;
  std::unique_ptr<CsvStreamSource> csv_;
};

/// Adapter over an existing in-memory database: yields a copy of each
/// trajectory in database order. Lets eager callers (tests, benches, datagen
/// corpora) feed the streaming pipeline mode without touching disk.
class DatabaseSource : public TrajectorySource {
 public:
  /// `db` must outlive the source.
  explicit DatabaseSource(const TrajectoryDatabase& db) : db_(&db) {}

  common::Result<bool> Next(Trajectory* out) override {
    if (next_ >= db_->size()) return false;
    *out = (*db_)[next_++];
    return true;
  }

 private:
  const TrajectoryDatabase* db_;
  size_t next_ = 0;
};

/// Guard of the partitioning entry points: passes `inner`'s trajectories
/// through unchanged and, at the end of input, fails with InvalidArgument when
/// no trajectory had two distinct points. MDL partitioning (§3) cuts no
/// segment out of such input, so a run over it would otherwise report zero
/// partitions and succeed. The status names the first trajectory and, for a
/// CSV source, the line of its first row. Input with at least one trajectory
/// of two distinct points passes unchanged (degenerate trajectories in it
/// included), and so does empty input. A failure is sticky, like every
/// source's.
class RequireSegmentsSource : public TrajectorySource {
 public:
  /// `inner` must outlive the guard.
  explicit RequireSegmentsSource(TrajectorySource& inner) : inner_(&inner) {}

  common::Result<bool> Next(Trajectory* out) override;

  size_t first_line() const override { return inner_->first_line(); }

 private:
  TrajectorySource* inner_;
  bool seen_ = false;     // At least one trajectory passed through.
  bool usable_ = false;   // One of them had two distinct points.
  geom::TrajectoryId first_id_ = 0;  // The first trajectory and its line.
  size_t first_line_ = 0;
  common::Status failed_ = common::Status::OK();
};

/// Drains a source into an in-memory database — the bridge from the streaming
/// ingest API back to the eager one. Negative trajectory ids are assigned
/// sequentially by TrajectoryDatabase::Add, exactly as the historical readers
/// did. On a source error nothing is returned: a partially-drained database
/// is never handed out.
common::Result<TrajectoryDatabase> DrainToDatabase(TrajectorySource& source);

}  // namespace traclus::traj

#endif  // TRACLUS_TRAJ_SOURCE_H_
