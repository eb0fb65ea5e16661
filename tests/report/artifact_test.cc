/**
 * @file
 * Tests of run artifacts: table serialisation, the write -> load
 * round trip through an actual file, and schema validation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "report/artifact.hh"

namespace ibp {
namespace {

ResultTable
sampleTable()
{
    ResultTable table("Figure 2: BTB rates (%)", "benchmark");
    table.addColumn("BTB");
    table.addColumn("BTB-2bc");
    const unsigned avg = table.addRow("AVG");
    table.set(avg, 0, 28.1);
    table.set(avg, 1, 24.9);
    const unsigned idl = table.addRow("idl");
    table.set(idl, 0, 12.25);
    // idl/BTB-2bc intentionally left empty.
    return table;
}

RunArtifact
sampleArtifact()
{
    RunArtifact artifact;
    artifact.manifest = buildManifest();
    artifact.manifest.slug = "fig02";
    artifact.manifest.title = "Figure 2";
    artifact.manifest.eventScale = 0.25;
    artifact.manifest.threads = 4;
    artifact.manifest.quick = true;
    artifact.tables.push_back(sampleTable());
    artifact.notes.push_back("paper anchor: AVG 28.1 / 24.9");
    CellMetrics cell;
    cell.column = "BTB";
    cell.benchmark = "idl";
    cell.branches = 424242;
    cell.seconds = 0.125;
    cell.tableOccupancy = 1844;
    cell.tableCapacity = 4096;
    artifact.metrics.recordCell(cell);
    artifact.metrics.recordRunWindow(0.25);
    artifact.metrics.recordThreads(4);
    return artifact;
}

void
expectTablesEqual(const ResultTable &a, const ResultTable &b)
{
    EXPECT_EQ(a.title(), b.title());
    EXPECT_EQ(a.rowHeader(), b.rowHeader());
    EXPECT_EQ(a.precision(), b.precision());
    ASSERT_EQ(a.numRows(), b.numRows());
    ASSERT_EQ(a.numCols(), b.numCols());
    for (unsigned r = 0; r < a.numRows(); ++r) {
        EXPECT_EQ(a.rowLabel(r), b.rowLabel(r));
        for (unsigned c = 0; c < a.numCols(); ++c) {
            EXPECT_EQ(a.colLabel(c), b.colLabel(c));
            const auto cell_a = a.get(r, c);
            const auto cell_b = b.get(r, c);
            ASSERT_EQ(cell_a.has_value(), cell_b.has_value());
            if (cell_a) {
                EXPECT_DOUBLE_EQ(*cell_a, *cell_b);
            }
        }
    }
}

TEST(ArtifactTest, TableJsonRoundTrip)
{
    const ResultTable table = sampleTable();
    const ResultTable parsed = tableFromJson(
        Json::parse(tableToJson(table).dump(2)));
    expectTablesEqual(table, parsed);
}

TEST(ArtifactTest, WriteLoadRoundTrip)
{
    const RunArtifact artifact = sampleArtifact();
    const std::string path =
        testing::TempDir() + "/ibp_artifact_test/fig02.json";
    ASSERT_TRUE(artifact.write(path).ok()); // creates the directory

    const RunArtifact loaded = RunArtifact::load(path).value();
    EXPECT_EQ(loaded.manifest.slug, "fig02");
    EXPECT_EQ(loaded.manifest.title, "Figure 2");
    EXPECT_EQ(loaded.manifest.gitSha, artifact.manifest.gitSha);
    EXPECT_EQ(loaded.manifest.compiler,
              artifact.manifest.compiler);
    EXPECT_DOUBLE_EQ(loaded.manifest.eventScale, 0.25);
    EXPECT_EQ(loaded.manifest.threads, 4u);
    EXPECT_TRUE(loaded.manifest.quick);

    ASSERT_EQ(loaded.tables.size(), 1u);
    expectTablesEqual(loaded.tables[0], artifact.tables[0]);
    ASSERT_EQ(loaded.notes.size(), 1u);
    EXPECT_EQ(loaded.notes[0], artifact.notes[0]);
    EXPECT_EQ(loaded.metrics.totalBranches(), 424242u);
    EXPECT_DOUBLE_EQ(loaded.metrics.runSeconds(), 0.25);
    EXPECT_EQ(loaded.metrics.threads(), 4u);

    // A second round trip through JSON must be byte-stable (the
    // regression gate depends on artifacts not drifting).
    EXPECT_EQ(loaded.toJson().dump(2), artifact.toJson().dump(2));
}

TEST(ArtifactTest, FindTableByTitle)
{
    const RunArtifact artifact = sampleArtifact();
    EXPECT_NE(artifact.findTable("Figure 2: BTB rates (%)"),
              nullptr);
    EXPECT_EQ(artifact.findTable("nonexistent"), nullptr);
}

TEST(ArtifactTest, BuildManifestIsPopulated)
{
    const RunManifest manifest = buildManifest();
    EXPECT_FALSE(manifest.compiler.empty());
    EXPECT_FALSE(manifest.timestamp.empty());
    // ISO-8601 UTC: 2026-08-06T12:00:00Z
    EXPECT_EQ(manifest.timestamp.size(), 20u);
    EXPECT_EQ(manifest.timestamp.back(), 'Z');
}

TEST(ArtifactTest, WrongSchemaIsRecoverable)
{
    // A bad artifact throws (load() converts that into a RunError);
    // it must never abort the consuming process.
    EXPECT_THROW(
        RunArtifact::fromJson(Json::parse("{\"schema\":\"other\"}")),
        RunException);
    EXPECT_THROW(RunArtifact::fromJson(Json::parse(
                     "{\"schema\":\"ibp-run-artifact\","
                     "\"version\":999}")),
                 RunException);
}

TEST(ArtifactTest, LoadRejectsMalformedFile)
{
    const std::string path =
        testing::TempDir() + "/ibp_artifact_bad.json";
    std::ofstream(path) << "{not json";
    const auto result = RunArtifact::load(path);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("json parse error"),
              std::string::npos);
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
}

TEST(ArtifactTest, LoadReportsMissingFile)
{
    const auto result =
        RunArtifact::load(testing::TempDir() + "/ibp_no_such.json");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("cannot open"),
              std::string::npos);
}

TEST(ArtifactTest, LoadRejectsMalformedTables)
{
    // Structurally broken tables (cell rows vs row labels) are a
    // recoverable error too, not an assertion.
    const std::string path =
        testing::TempDir() + "/ibp_artifact_badtable.json";
    std::ofstream(path)
        << "{\"schema\":\"ibp-run-artifact\",\"version\":1,"
           "\"manifest\":{},\"metrics\":{},"
           "\"tables\":[{\"title\":\"t\",\"row_header\":\"r\","
           "\"columns\":[\"a\"],\"rows\":[\"x\",\"y\"],"
           "\"cells\":[[1.0]]}]}";
    const auto result = RunArtifact::load(path);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("row labels"),
              std::string::npos);
}

TEST(ArtifactTest, WriteLeavesNoTempFileBehind)
{
    const RunArtifact artifact = sampleArtifact();
    const std::string dir =
        testing::TempDir() + "/ibp_artifact_atomic";
    const std::string path = dir + "/fig02.json";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(artifact.write(path).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
    // The artifact is the directory's only file: no temp survives.
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().string(), path);
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(ArtifactTest, WriteReportsUnwritableDirectory)
{
    const RunArtifact artifact = sampleArtifact();
    // A regular file where a directory is needed cannot be created.
    const std::string blocker =
        testing::TempDir() + "/ibp_artifact_blocker";
    std::ofstream(blocker) << "file";
    const auto result = artifact.write(blocker + "/sub/fig.json");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
}

} // namespace
} // namespace ibp
