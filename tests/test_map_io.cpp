// Round-trip and error-path tests for the grid text format.

#include "map/map_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/rng.hpp"
#include "sim/maze.hpp"
#include "sim/worldgen.hpp"

namespace tofmcl::map {
namespace {

OccupancyGrid random_grid(std::uint64_t seed) {
  Rng rng(seed);
  OccupancyGrid g(17, 9, 0.05, {-1.25, 2.5}, CellState::kFree);
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      const double u = rng.uniform();
      if (u < 0.2) g.set({x, y}, CellState::kOccupied);
      else if (u < 0.35) g.set({x, y}, CellState::kUnknown);
    }
  }
  return g;
}

TEST(MapIo, StreamRoundTrip) {
  const OccupancyGrid g = random_grid(1);
  std::stringstream ss;
  save_grid(g, ss);
  const OccupancyGrid loaded = load_grid(ss);
  EXPECT_EQ(loaded, g);
}

TEST(MapIo, V1StreamRoundTrip) {
  const OccupancyGrid g = random_grid(3);
  std::stringstream ss;
  save_grid(g, ss, GridFormat::kV1);
  EXPECT_NE(ss.str().find("tofmcl-grid 1"), std::string::npos);
  const OccupancyGrid loaded = load_grid(ss);
  EXPECT_EQ(loaded, g);
}

// The v1 header used to be written with default ostream precision (6 sig
// figs), so resolutions/origins with more digits did not round-trip.
// max_digits10 makes save→load exact for arbitrary doubles, in both
// formats.
TEST(MapIo, HeaderDoublesRoundTripBitExactly) {
  const double resolution = 0.1 + 1e-13;
  const Vec2 origin{-3.141592653589793, 1.0 / 3.0};
  for (const GridFormat format : {GridFormat::kV1, GridFormat::kV2}) {
    OccupancyGrid g(4, 3, resolution, origin, CellState::kFree);
    g.set({1, 2}, CellState::kOccupied);
    std::stringstream ss;
    save_grid(g, ss, format);
    const OccupancyGrid loaded = load_grid(ss);
    EXPECT_EQ(loaded.resolution(), resolution);
    EXPECT_EQ(loaded.origin().x, origin.x);
    EXPECT_EQ(loaded.origin().y, origin.y);
    EXPECT_EQ(loaded, g);
  }
}

// Windows line endings must parse identically: getline leaves the '\r',
// which used to fail the row-width check.
TEST(MapIo, AcceptsCrlfLineEndings) {
  for (const GridFormat format : {GridFormat::kV1, GridFormat::kV2}) {
    const OccupancyGrid g = random_grid(4);
    std::stringstream ss;
    save_grid(g, ss, format);
    std::string text = ss.str();
    std::string crlf;
    for (const char c : text) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    std::stringstream in(crlf);
    const OccupancyGrid loaded = load_grid(in);
    EXPECT_EQ(loaded, g);
  }
}

TEST(MapIo, V2IsRunLengthEncoded) {
  OccupancyGrid g(100, 2, 0.05, {}, CellState::kFree);
  g.set({50, 0}, CellState::kOccupied);
  std::stringstream v2;
  save_grid(g, v2, GridFormat::kV2);
  std::stringstream v1;
  save_grid(g, v1, GridFormat::kV1);
  EXPECT_LT(v2.str().size(), v1.str().size() / 4);
  EXPECT_NE(v2.str().find("50.#49.\n100.\n"), std::string::npos);
  const OccupancyGrid loaded = load_grid(v2);
  EXPECT_EQ(loaded, g);
}

TEST(MapIo, V2RejectsMalformedRuns) {
  // Run overflows the row.
  std::stringstream a("tofmcl-grid 2\n3 1 0.05 0 0\n4.\n");
  EXPECT_THROW(load_grid(a), IoError);
  // Row too short.
  std::stringstream b("tofmcl-grid 2\n3 1 0.05 0 0\n2.\n");
  EXPECT_THROW(load_grid(b), IoError);
  // Count without glyph.
  std::stringstream c("tofmcl-grid 2\n3 1 0.05 0 0\n3\n");
  EXPECT_THROW(load_grid(c), IoError);
  // Zero-length run.
  std::stringstream d("tofmcl-grid 2\n3 1 0.05 0 0\n0.3.\n");
  EXPECT_THROW(load_grid(d), IoError);
  // Bad glyph inside a run.
  std::stringstream e("tofmcl-grid 2\n3 1 0.05 0 0\n3x\n");
  EXPECT_THROW(load_grid(e), IoError);
}

// Mutated worlds are the v2 stress case the format has not seen before:
// scattered people-sized clutter breaks the long free-space runs of a
// pristine generated world into many short RLE tokens. The round trip
// must stay bit-exact and the encoding worthwhile.
TEST(MapIo, MutatedWorldRoundTripsThroughV2) {
  sim::WorldGenConfig config;
  config.seed = 6;
  const sim::GeneratedWorld world =
      sim::generate_world(sim::GeneratedWorldKind::kWarehouse, config);
  const sim::EvaluationEnvironment stale = sim::mutate_world(
      world.env, world.plans, sim::MutationLevel::kHeavy, 3);
  const OccupancyGrid grid = sim::rasterize_environment(stale, 0.05, 0.01);

  std::stringstream v2;
  save_grid(grid, v2, GridFormat::kV2);
  std::stringstream v1;
  save_grid(grid, v1, GridFormat::kV1);
  EXPECT_LT(v2.str().size(), v1.str().size() / 4);
  const OccupancyGrid loaded = load_grid(v2);
  EXPECT_EQ(loaded, grid);
}

TEST(MapIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "tofmcl_test_maps" / "grid.txt";
  const OccupancyGrid g = random_grid(2);
  save_grid(g, path);
  const OccupancyGrid loaded = load_grid(path);
  EXPECT_EQ(loaded, g);
  std::filesystem::remove_all(path.parent_path());
}

TEST(MapIo, RejectsWrongMagic) {
  std::stringstream ss("not-a-grid 1\n3 3 0.05 0 0\n...\n...\n...\n");
  EXPECT_THROW(load_grid(ss), IoError);
}

TEST(MapIo, RejectsWrongVersion) {
  std::stringstream ss("tofmcl-grid 9\n3 3 0.05 0 0\n...\n...\n...\n");
  EXPECT_THROW(load_grid(ss), IoError);
}

TEST(MapIo, RejectsBadHeader) {
  std::stringstream ss("tofmcl-grid 1\n0 3 0.05 0 0\n");
  EXPECT_THROW(load_grid(ss), IoError);
  std::stringstream ss2("tofmcl-grid 1\n3 3 -1 0 0\n...\n...\n...\n");
  EXPECT_THROW(load_grid(ss2), IoError);
}

TEST(MapIo, RejectsTruncatedBody) {
  std::stringstream ss("tofmcl-grid 1\n3 3 0.05 0 0\n...\n...\n");
  EXPECT_THROW(load_grid(ss), IoError);
}

TEST(MapIo, RejectsWrongRowWidth) {
  std::stringstream ss("tofmcl-grid 1\n3 2 0.05 0 0\n....\n...\n");
  EXPECT_THROW(load_grid(ss), IoError);
}

TEST(MapIo, RejectsInvalidGlyph) {
  std::stringstream ss("tofmcl-grid 1\n3 1 0.05 0 0\n.x.\n");
  EXPECT_THROW(load_grid(ss), IoError);
}

TEST(MapIo, MissingFileThrows) {
  EXPECT_THROW(load_grid(std::filesystem::path("/nonexistent/nope.txt")),
               IoError);
}

TEST(MapIo, AsciiRendering) {
  OccupancyGrid g(3, 2, 0.05, {}, CellState::kFree);
  g.set({0, 0}, CellState::kOccupied);
  g.set({2, 1}, CellState::kUnknown);
  // Top row (y=1) first in the rendering.
  EXPECT_EQ(to_ascii(g), "..?\n#..\n");
}

}  // namespace
}  // namespace tofmcl::map
