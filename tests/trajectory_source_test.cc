// Tests for the pull-based ingest API (traj/source.h): parser equivalence
// with the eager ParseCsv/ReadCsv wrappers, the mid-stream failure contract
// (typed InvalidArgument naming the exact line, sticky failure, no partial
// trajectory or segment ever leaked), a seeded mutation fuzz of a saved
// hurricane subset, stdin-style stream sources, and the DatabaseSource
// adapter.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "traj/csv_io.h"
#include "traj/source.h"

namespace traclus::traj {
namespace {

using common::StatusCode;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f << content;
}

void ExpectSameDatabase(const TrajectoryDatabase& got,
                        const TrajectoryDatabase& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(got[t].id(), want[t].id()) << "trajectory " << t;
    EXPECT_EQ(got[t].weight(), want[t].weight()) << "trajectory " << t;
    ASSERT_EQ(got[t].size(), want[t].size()) << "trajectory " << t;
    for (size_t p = 0; p < want[t].size(); ++p) {
      EXPECT_EQ(got[t][p].dims(), want[t][p].dims());
      for (int d = 0; d < want[t][p].dims(); ++d) {
        EXPECT_EQ(got[t][p][d], want[t][p][d])
            << "trajectory " << t << " point " << p << " dim " << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Source ≡ eager parser.
// ---------------------------------------------------------------------------

constexpr const char* kMixedCsv =
    "trajectory_id,x,y\n"        // Tolerated header.
    "# comment line\n"
    "0,0.5,1.25\n"
    "0,1.5,2.5\n"
    "\n"                         // Blank line ignored.
    "7,3.0,4.0\n"
    "7,3.5,4.5\n"
    "7,4.0,5.0\n"
    "-3,9.0,9.5\n"               // Negative id: assigned by Add.
    "-3,9.5,10.0\n";

TEST(CsvSourceTest, StringSourceMatchesParseCsv) {
  const auto eager = ParseCsv(kMixedCsv);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  CsvStringSource source(kMixedCsv);
  const auto drained = DrainToDatabase(source);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ExpectSameDatabase(*drained, *eager);
  ASSERT_EQ(drained->size(), 3u);
  // The negative-id trajectory takes its database position, as Add always did.
  EXPECT_EQ((*drained)[2].id(), 2);
}

TEST(CsvSourceTest, YieldsTrajectoriesOneAtATimeInInputOrder) {
  CsvStringSource source("1,0,0\n1,1,1\n2,5,5\n3,6,6\n3,7,7\n3,8,8\n");
  Trajectory tr;
  std::vector<geom::TrajectoryId> ids;
  std::vector<size_t> sizes;
  while (true) {
    const auto more = source.Next(&tr);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ids.push_back(tr.id());
    sizes.push_back(tr.size());
  }
  EXPECT_EQ(ids, (std::vector<geom::TrajectoryId>{1, 2, 3}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 1, 3}));
  // Exhausted source stays exhausted.
  const auto again = source.Next(&tr);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(CsvSourceTest, FileSourceMatchesReadCsv) {
  const std::string path = TempPath("source_roundtrip.csv");
  WriteFile(path, kMixedCsv);
  const auto eager = ReadCsv(path);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  auto file = CsvFileSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const auto drained = DrainToDatabase(**file);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ExpectSameDatabase(*drained, *eager);
  std::remove(path.c_str());
}

TEST(CsvSourceTest, MissingFileIsIOError) {
  const auto file = CsvFileSource::Open("/nonexistent/definitely/not.csv");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
  EXPECT_NE(file.status().ToString().find("/nonexistent/definitely/not.csv"),
            std::string::npos);
}

TEST(CsvSourceTest, StreamSourceReadsAnyIstream) {
  std::istringstream in("4,1,2\n4,3,4\n");
  CsvStreamSource source(in);
  Trajectory tr;
  const auto more = source.Next(&tr);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(tr.id(), 4);
  EXPECT_EQ(tr.size(), 2u);
}

// ---------------------------------------------------------------------------
// Mid-stream failures: the exact line is named, the failure is sticky, and
// nothing partially ingested escapes.
// ---------------------------------------------------------------------------

TEST(CsvSourceFailureTest, TruncatedRowNamesItsLine) {
  // A file cut off mid-row: the final line has too few fields.
  CsvStringSource source("1,0,0\n1,1,1\n1,2");
  Trajectory tr;
  const auto more = source.Next(&tr);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(more.status().ToString().find("CSV line 3"), std::string::npos)
      << more.status().ToString();
}

TEST(CsvSourceFailureTest, MalformedRowDeepInLargeInputNamesExactLine) {
  // 10k clean rows, one corrupted coordinate deep inside.
  std::ostringstream csv;
  constexpr size_t kRows = 10000;
  constexpr size_t kBadLine = 8641;  // 1-based.
  for (size_t i = 1; i <= kRows; ++i) {
    if (i == kBadLine) {
      csv << i / 10 << ",not-a-number," << i << "\n";
    } else {
      csv << i / 10 << "," << i << "," << i << "\n";
    }
  }
  CsvStringSource source(csv.str());
  Trajectory tr;
  size_t yielded = 0;
  common::Status failure = common::Status::OK();
  while (true) {
    const auto more = source.Next(&tr);
    if (!more.ok()) {
      failure = more.status();
      break;
    }
    if (!*more) break;
    ++yielded;
  }
  ASSERT_FALSE(failure.ok()) << "the corrupted row must surface";
  EXPECT_EQ(failure.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failure.ToString().find("CSV line 8641"), std::string::npos)
      << failure.ToString();
  EXPECT_NE(failure.ToString().find("bad coordinate"), std::string::npos);
  // Every trajectory fully before the bad row was yielded (ids 0..863); the
  // one the bad row belongs to (id 864) was not.
  EXPECT_EQ(yielded, kBadLine / 10);
}

TEST(CsvSourceFailureTest, NonContiguousTrajectoryIdNamesItsLine) {
  CsvStringSource source("1,0,0\n2,1,1\n1,2,2\n");
  Trajectory tr;
  const auto first = source.Next(&tr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);
  EXPECT_EQ(tr.id(), 1);

  const auto second = source.Next(&tr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = second.status().ToString();
  EXPECT_NE(msg.find("CSV line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reappears"), std::string::npos) << msg;
}

TEST(CsvSourceFailureTest, FailureIsStickyAndYieldsNoPartialTrajectory) {
  CsvStringSource source("1,0,0\n1,1,1\nbogus-id,2,2\n1,3,3\n");
  Trajectory tr;
  const auto first = source.Next(&tr);
  ASSERT_FALSE(first.ok());
  const std::string msg = first.status().ToString();
  EXPECT_NE(msg.find("CSV line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad trajectory id 'bogus-id'"), std::string::npos)
      << msg;

  // Every later call repeats the identical status; the stream never resumes
  // past the error, so the valid-looking line 4 is unreachable.
  for (int i = 0; i < 3; ++i) {
    const auto again = source.Next(&tr);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().ToString(), msg);
  }
}

TEST(CsvSourceFailureTest, DrainReturnsNoPartialDatabase) {
  CsvStringSource source("1,0,0\n1,1,1\n2,5,5\n2,oops,6\n");
  const auto drained = DrainToDatabase(source);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(drained.status().ToString().find("CSV line 4"), std::string::npos);
}

TEST(CsvSourceFailureTest, StreamingEngineRunPropagatesIngestErrors) {
  // The streaming pipeline must surface the typed parse status — naming the
  // line — and hand back no partially-ingested result.
  CsvStringSource source(
      "1,0,0\n1,1,1\n1,2,2\n"
      "2,5,5\n2,6,6\n"
      "3,9,9\n3,10,nope\n");
  const auto engine = core::TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const auto run = engine->Run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().ToString().find("CSV line 7"), std::string::npos)
      << run.status().ToString();
}

TEST(CsvSourceFailureTest, MixedDimensionalityNamesItsLine) {
  CsvStringSource source("1,0,0\n1,1,1,2,0.5\n");
  Trajectory tr;
  const auto more = source.Next(&tr);
  ASSERT_FALSE(more.ok());
  const std::string msg = more.status().ToString();
  EXPECT_NE(msg.find("CSV line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("same dimensionality"), std::string::npos) << msg;
}

TEST(CsvSourceFailureTest, NonFiniteValuesNameTheirLine) {
  // strtod parses "nan" and "inf" without an error and saturates "1e400" to
  // infinity; none of them is a coordinate, z or weight. ±1e200 is finite
  // but its squared extents overflow the distance: a bad coordinate or z,
  // yet a valid weight (weights are never squared).
  struct Row {
    const char* prefix;  // Fields before the bad value.
    const char* suffix;  // Fields after it.
    const char* message;
    bool weight;  // The value lands in the weight column.
  };
  const Row rows[] = {
      {"1,", ",2", "bad coordinate", false},
      {"1,2,", "", "bad coordinate", false},
      {"1,2,3,", "", "bad weight", true},
      {"1,2,3,", ",1", "bad z or weight", false},
      {"1,2,3,4,", "", "bad z or weight", true},
  };
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "NAN", "-Infinity",
                          "1e200", "-1e200"}) {
    const bool finite = std::isfinite(std::strtod(bad, nullptr));
    for (const Row& row : rows) {
      const bool three_d = std::string(row.message) == "bad z or weight";
      const std::string good =
          three_d ? "1,0,0,0,1\n1,1,1,1,1\n" : "1,0,0\n1,1,1\n";
      const std::string csv = good + row.prefix + bad + row.suffix + "\n";
      CsvStringSource source(csv);
      Trajectory tr;
      const auto more = source.Next(&tr);
      if (finite && row.weight) {
        // The whole file parses: trajectory 1 with three points.
        ASSERT_TRUE(more.ok()) << csv << more.status().ToString();
        EXPECT_TRUE(*more) << csv;
        EXPECT_EQ(tr.size(), 3u) << csv;
        continue;
      }
      ASSERT_FALSE(more.ok()) << csv;
      EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument) << csv;
      const std::string msg = more.status().ToString();
      EXPECT_NE(msg.find("CSV line 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find(row.message), std::string::npos) << msg;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz over a saved hurricane subset.
// ---------------------------------------------------------------------------

// The first `lines` lines of `text`, each ending in a newline.
std::string FirstLines(const std::string& text, size_t lines) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  for (size_t k = 0; k < lines && std::getline(in, line); ++k) {
    out += line + "\n";
  }
  return out;
}

size_t CountLines(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

// N of a message starting "CSV line N: ", or 0.
size_t NamedLine(const std::string& message) {
  const std::string prefix = "CSV line ";
  if (message.compare(0, prefix.size(), prefix) != 0) return 0;
  return static_cast<size_t>(
      std::strtoull(message.c_str() + prefix.size(), nullptr, 10));
}

// Either a typed failure at an exact line — the lines before it parse and
// the lines up to it fail with the same status — or a parse equal to a
// re-parse of the same text through the streaming reader, holding only
// coordinates the parser admits. Returns whether the text failed.
bool ExpectFailsAtItsLineOrParsesStably(const std::string& text) {
  const auto parsed = ParseCsv(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    const std::string message(parsed.status().message());
    const size_t line = NamedLine(message);
    EXPECT_GE(line, 1u) << message;
    EXPECT_LE(line, CountLines(text)) << message;
    if (line == 0) return true;
    const auto before = ParseCsv(FirstLines(text, line - 1));
    EXPECT_TRUE(before.ok()) << message << " / " << before.status().ToString();
    const auto upto = ParseCsv(FirstLines(text, line));
    EXPECT_FALSE(upto.ok()) << message;
    EXPECT_EQ(upto.status().ToString(), parsed.status().ToString());
    return true;
  }
  std::istringstream in(text);
  CsvStreamSource stream(in);
  const auto again = DrainToDatabase(stream);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  if (again.ok()) ExpectSameDatabase(*again, *parsed);
  for (const Trajectory& tr : parsed->trajectories()) {
    EXPECT_TRUE(std::isfinite(tr.weight()));
    for (const geom::Point& p : tr.points()) {
      for (int d = 0; d < p.dims(); ++d) {
        EXPECT_TRUE(std::isfinite(p[d])) << tr.id();
        EXPECT_LE(std::fabs(p[d]), 1e150) << tr.id();
      }
    }
  }
  return false;
}

TEST(CsvSourceFuzzTest, MutantsFailAtTheirLineOrParseStably) {
  // Twelve weighted hurricane tracks, saved through WriteCsv: a header
  // comment, then rows `id,x,y,weight`.
  datagen::HurricaneConfig config;
  config.min_weight = 1.0;
  config.max_weight = 5.0;
  const TrajectoryDatabase all = datagen::GenerateHurricanes(config);
  TrajectoryDatabase subset;
  for (size_t t = 0; t < 12; ++t) subset.Add(all[t]);
  const std::string path = TempPath("hurricane_subset.csv");
  ASSERT_TRUE(WriteCsv(subset, path).ok());
  std::ifstream file(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  ASSERT_TRUE(ParseCsv(text).ok());

  // Lines as [begin, end) byte ranges, and each data row's trajectory.
  std::vector<std::pair<size_t, size_t>> lines;
  for (size_t b = 0; b < text.size();) {
    const size_t e = text.find('\n', b);
    lines.push_back({b, e});
    b = e + 1;
  }
  const char* literals[] = {"nan",  "-nan",   "inf",   "-inf",
                            "NaN",  "1e309",  "1e200", "-1e151",
                            "1e151", "Infinity"};
  const char alphabet[] = "0123456789.,-+eE#\n \t\rxn";

  common::Rng rng(2026);
  size_t failed = 0;
  constexpr int kMutants = 800;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = text;
    std::string kind;
    switch (m % 4) {
      case 0: {  // A byte flip: a CSV-significant character or any byte.
        const size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        mutant[pos] = rng.UniformInt(0, 1) == 0
                          ? alphabet[rng.UniformInt(0, sizeof(alphabet) - 2)]
                          : static_cast<char>(rng.UniformInt(0, 255));
        kind = "flip at byte " + std::to_string(pos);
        break;
      }
      case 1: {  // A truncation, mid-row or at a row boundary.
        const size_t size = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        mutant.resize(size);
        kind = "truncation to " + std::to_string(size);
        break;
      }
      case 2: {  // A non-finite or > 1e150 literal in x, y or the weight.
        const size_t l = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(lines.size()) - 1));
        const size_t field = static_cast<size_t>(rng.UniformInt(1, 3));
        const char* literal = literals[rng.UniformInt(0, 9)];
        size_t b = lines[l].first;
        for (size_t f = 0; f < field; ++f) b = text.find(',', b) + 1;
        const size_t e = std::min(text.find(',', b), lines[l].second);
        mutant.replace(b, e - b, literal);
        kind = std::string(literal) + " in field " + std::to_string(field) +
               " of line " + std::to_string(l + 1);
        break;
      }
      default: {  // Tracks whose rows all repeat their first point.
        const bool every = m % 8 == 7;
        std::string out = text.substr(0, lines[0].second + 1);
        std::string first_point;
        std::string prev_id;
        bool flatten = false;
        for (size_t l = 1; l < lines.size(); ++l) {
          const std::string row =
              text.substr(lines[l].first, lines[l].second - lines[l].first);
          const size_t c1 = row.find(',');
          const size_t c3 = row.rfind(',');
          const std::string id = row.substr(0, c1);
          if (id != prev_id) {
            prev_id = id;
            flatten = every || rng.UniformInt(0, 2) == 0;
            first_point = row.substr(c1, c3 - c1);
          }
          out += flatten ? id + first_point + row.substr(c3) : row;
          out += "\n";
        }
        mutant = out;
        kind = every ? "every track duplicated" : "some tracks duplicated";
        // Nothing to partition unless some track kept two distinct points:
        // the guard names the first track's first row (line 2).
        CsvStringSource csv(mutant);
        RequireSegmentsSource guard(csv);
        const auto guarded = DrainToDatabase(guard);
        if (every) {
          ASSERT_FALSE(guarded.ok()) << kind;
          EXPECT_EQ(guarded.status().code(), StatusCode::kInvalidArgument);
          EXPECT_EQ(NamedLine(std::string(guarded.status().message())), 2u)
              << guarded.status().ToString();
        } else if (guarded.ok()) {
          ExpectSameDatabase(*guarded, *ParseCsv(mutant));
        }
        break;
      }
    }
    SCOPED_TRACE(testing::Message() << "mutant " << m << ": " << kind);
    if (ExpectFailsAtItsLineOrParsesStably(mutant)) ++failed;
  }
  // Both outcomes are exercised.
  EXPECT_GT(failed, size_t{kMutants / 8});
  EXPECT_LT(failed, size_t{kMutants * 7 / 8});
}

// ---------------------------------------------------------------------------
// DatabaseSource: the eager → streaming bridge.
// ---------------------------------------------------------------------------

TEST(DatabaseSourceTest, RoundTripsTheDatabase) {
  TrajectoryDatabase db;
  Trajectory a(10, "a", 2.0);
  a.Add(geom::Point(0, 0));
  a.Add(geom::Point(1, 1));
  Trajectory b(20, "b");
  b.Add(geom::Point(5, 5));
  b.Add(geom::Point(6, 6));
  db.Add(std::move(a));
  db.Add(std::move(b));

  DatabaseSource source(db);
  const auto drained = DrainToDatabase(source);
  ASSERT_TRUE(drained.ok());
  ExpectSameDatabase(*drained, db);
}

// ---------------------------------------------------------------------------
// RequireSegmentsSource: input with nothing to partition is an error.
// ---------------------------------------------------------------------------

TEST(RequireSegmentsSourceTest, FirstLineNamesEachTrajectorysFirstRow) {
  CsvStringSource source(kMixedCsv);
  Trajectory tr;
  std::vector<size_t> lines;
  while (true) {
    const auto more = source.Next(&tr);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    lines.push_back(source.first_line());
  }
  EXPECT_EQ(lines, (std::vector<size_t>{3, 6, 9}));
}

TEST(RequireSegmentsSourceTest, AllDegenerateInputNamesTheFirstTrajectory) {
  // Single points and repeated points: no trajectory has two distinct
  // points, so MDL partitioning would cut no segment at all.
  CsvStringSource csv(
      "trajectory_id,x,y\n"
      "# every trajectory below is one repeated point\n"
      "4,1,1\n4,1,1\n4,1,1\n"
      "5,2,2\n"
      "6,3,3\n6,3,3\n");
  RequireSegmentsSource source(csv);
  const auto drained = DrainToDatabase(source);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = drained.status().ToString();
  EXPECT_NE(msg.find("CSV line 3: trajectory 4 has fewer than 2 distinct "
                     "points"),
            std::string::npos)
      << msg;
  // Sticky, like every source failure.
  Trajectory tr;
  const auto again = source.Next(&tr);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().ToString(), msg);

  // The streaming engine surfaces the same status.
  CsvStringSource stream_csv("1,0,0\n1,0,0\n2,5,5\n");
  RequireSegmentsSource stream(stream_csv);
  const auto engine = core::TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const auto run = engine->Run(stream);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().ToString().find("CSV line 1: trajectory 1"),
            std::string::npos)
      << run.status().ToString();
}

TEST(RequireSegmentsSourceTest, InputWithOneUsableTrajectoryPassesUnchanged) {
  // Degenerate trajectories stay accepted while another one has two
  // distinct points, wherever it sits; so does empty input.
  for (const char* text : {"1,0,0\n2,1,1\n2,1,1\n3,4,4\n3,4,4\n3,5,4\n",
                           "1,0,0\n1,0,1\n2,3,3\n", "", "# nothing\n"}) {
    const auto plain = ParseCsv(text);
    ASSERT_TRUE(plain.ok()) << text;
    CsvStringSource csv(text);
    RequireSegmentsSource source(csv);
    const auto drained = DrainToDatabase(source);
    ASSERT_TRUE(drained.ok()) << text << drained.status().ToString();
    ExpectSameDatabase(*drained, *plain);
  }
  // A source without lines names the trajectory alone.
  TrajectoryDatabase db;
  Trajectory lone(9);
  lone.Add(geom::Point(1, 1));
  db.Add(lone);
  DatabaseSource inner(db);
  RequireSegmentsSource source(inner);
  const auto drained = DrainToDatabase(source);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().ToString().find("CSV line"), std::string::npos);
  EXPECT_NE(drained.status().ToString().find("trajectory 9"),
            std::string::npos);
}

}  // namespace
}  // namespace traclus::traj
