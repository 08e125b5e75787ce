#include "traj/source.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

namespace traclus::traj {

namespace {

// Splits a CSV row on commas; no quoting support (the schema is numeric).
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() &&
         (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is not universally available; strtod is fine here.
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  // strtod accepts "nan" and "inf" without setting errno; neither is a
  // coordinate, z or weight.
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseCoordinate(std::string_view s, double* out) {
  return ParseDouble(s, out) && std::fabs(*out) <= kMaxCoordinate;
}

bool ParseId(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

common::Result<bool> CsvStreamSource::NextRow(Row* row) {
  // One iteration per input line; comments, blank lines, and the tolerated
  // header never leave this loop. The message strings below are the parse
  // error contract of the historical ParseCsv, preserved byte-for-byte —
  // tests/traj_io_test.cc pins them through the eager wrappers.
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_no_;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const auto fields = SplitFields(sv);
    if (fields.size() < 3) {
      return common::Status::InvalidArgument(
          "CSV line " + std::to_string(line_no_) +
          ": expected at least 3 fields");
    }
    int64_t id = 0;
    if (!ParseId(fields[0], &id)) {
      // Tolerate a header row once at the top of the file.
      if (line_no_ == 1) continue;
      return common::Status::InvalidArgument(
          "CSV line " + std::to_string(line_no_) + ": bad trajectory id '" +
          std::string(fields[0]) + "'");
    }

    double x = 0.0;
    double y = 0.0;
    if (!ParseCoordinate(fields[1], &x) || !ParseCoordinate(fields[2], &y)) {
      return common::Status::InvalidArgument(
          "CSV line " + std::to_string(line_no_) + ": bad coordinate");
    }

    double z = 0.0;
    double weight = 1.0;
    bool has_z = false;
    if (fields.size() == 4) {
      // Ambiguous 4th column: treat as weight (most common export shape).
      if (!ParseDouble(fields[3], &weight)) {
        return common::Status::InvalidArgument(
            "CSV line " + std::to_string(line_no_) + ": bad weight");
      }
    } else if (fields.size() >= 5) {
      if (!ParseCoordinate(fields[3], &z) ||
          !ParseDouble(fields[4], &weight)) {
        return common::Status::InvalidArgument(
            "CSV line " + std::to_string(line_no_) + ": bad z or weight");
      }
      has_z = true;
    }

    const int row_dims = has_z ? 3 : 2;
    if (dims_ == 0) {
      dims_ = row_dims;
    } else if (row_dims != dims_) {
      return common::Status::InvalidArgument(
          "CSV line " + std::to_string(line_no_) + ": " +
          std::to_string(row_dims) + "-D row in a " + std::to_string(dims_) +
          "-D file (all rows must have the same dimensionality)");
    }

    // The contiguity check runs after the row's own fields validated — a row
    // that is both malformed and out of place reports the malformation, like
    // the historical parser.
    if ((!have_current_ || current_.id() != id) &&
        finished_ids_.count(id) != 0) {
      return common::Status::InvalidArgument(
          "CSV line " + std::to_string(line_no_) + ": trajectory id " +
          std::to_string(id) +
          " reappears after other trajectories (rows of one trajectory "
          "must be contiguous)");
    }

    row->id = id;
    row->point = has_z ? geom::Point(x, y, z) : geom::Point(x, y);
    row->weight = weight;
    return true;
  }
  return false;
}

common::Result<bool> CsvStreamSource::Next(Trajectory* out) {
  if (!failed_.ok()) return failed_;
  if (done_) return false;

  // Resume from the look-ahead row that ended the previous trajectory.
  if (have_pending_) {
    current_ = Trajectory(pending_.id, /*label=*/"", pending_.weight);
    current_.Add(pending_.point);
    current_line_ = pending_line_;
    have_current_ = true;
    have_pending_ = false;
  }

  Row row;
  while (true) {
    auto next = NextRow(&row);
    if (!next.ok()) {
      // A broken stream stays broken: park the status and never hand out the
      // partially-read trajectory.
      failed_ = next.status();
      have_current_ = false;
      return failed_;
    }
    if (!*next) {
      done_ = true;
      if (have_current_) {
        have_current_ = false;
        yielded_line_ = current_line_;
        *out = std::move(current_);
        return true;
      }
      return false;
    }
    if (have_current_ && current_.id() == row.id) {
      // Later weight cells of a trajectory are ignored (first row decides).
      current_.Add(row.point);
      continue;
    }
    if (have_current_) {
      // `row` opens the next trajectory: park it and yield the finished one.
      finished_ids_.insert(current_.id());
      pending_ = row;
      pending_line_ = line_no_;
      have_pending_ = true;
      have_current_ = false;
      yielded_line_ = current_line_;
      *out = std::move(current_);
      return true;
    }
    current_ = Trajectory(row.id, /*label=*/"", row.weight);
    current_.Add(row.point);
    current_line_ = line_no_;
    have_current_ = true;
  }
}

common::Result<std::unique_ptr<CsvFileSource>> CsvFileSource::Open(
    const std::string& path) {
  auto stream = std::make_unique<std::ifstream>(path);
  if (!*stream) {
    return common::Status::IOError("cannot open '" + path + "' for reading");
  }
  return std::unique_ptr<CsvFileSource>(new CsvFileSource(std::move(stream)));
}

common::Result<bool> RequireSegmentsSource::Next(Trajectory* out) {
  if (!failed_.ok()) return failed_;
  TRACLUS_ASSIGN_OR_RETURN(const bool more, inner_->Next(out));
  if (more) {
    if (!seen_) {
      seen_ = true;
      first_id_ = out->id();
      first_line_ = inner_->first_line();
    }
    for (size_t i = 1; !usable_ && i < out->size(); ++i) {
      usable_ = (*out)[i] != (*out)[0];
    }
    return true;
  }
  if (seen_ && !usable_) {
    const std::string where =
        first_line_ > 0 ? "CSV line " + std::to_string(first_line_) + ": "
                        : std::string();
    failed_ = common::Status::InvalidArgument(
        where + "trajectory " + std::to_string(first_id_) +
        " has fewer than 2 distinct points, and so has every trajectory of "
        "the input: there is no segment to partition");
    return failed_;
  }
  return false;
}

common::Result<TrajectoryDatabase> DrainToDatabase(TrajectorySource& source) {
  TrajectoryDatabase db;
  Trajectory tr;
  while (true) {
    TRACLUS_ASSIGN_OR_RETURN(const bool more, source.Next(&tr));
    if (!more) return db;
    db.Add(std::move(tr));
  }
}

}  // namespace traclus::traj
