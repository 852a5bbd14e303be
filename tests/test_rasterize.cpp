// Tests for world→grid rasterization: wall coverage and inflation,
// interior fill and agreement between analytic raycasts and the
// rasterized map.

#include "map/rasterize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>

#include "common/angles.hpp"
#include "common/error.hpp"

namespace tofmcl::map {
namespace {

TEST(Rasterize, RejectsEmptyWorldAndBadResolution) {
  World w;
  EXPECT_THROW(rasterize(w, {}), PreconditionError);
  w.add_segment({0, 0}, {1, 0});
  RasterizeOptions bad;
  bad.resolution = 0.0;
  EXPECT_THROW(rasterize(w, bad), PreconditionError);
}

TEST(Rasterize, GridCoversWorldPlusMargin) {
  World w;
  w.add_rectangle({{0.0, 0.0}, {2.0, 1.0}});
  RasterizeOptions opt;
  opt.resolution = 0.05;
  opt.margin = 0.15;
  const OccupancyGrid g = rasterize(w, opt);
  EXPECT_DOUBLE_EQ(g.origin().x, -0.15);
  EXPECT_DOUBLE_EQ(g.origin().y, -0.15);
  EXPECT_GE(g.bounds().max.x, 2.15 - 1e-9);
  EXPECT_GE(g.bounds().max.y, 1.15 - 1e-9);
}

TEST(Rasterize, WallCellsOccupied) {
  World w;
  w.add_segment({0.0, 0.5}, {2.0, 0.5});  // horizontal wall
  RasterizeOptions opt;
  const OccupancyGrid g = rasterize(w, opt);
  // Sample along the wall: the containing cell must be occupied.
  for (double x = 0.05; x < 2.0; x += 0.1) {
    EXPECT_EQ(g.state_at({x, 0.5}), CellState::kOccupied) << "x=" << x;
  }
}

TEST(Rasterize, InteriorStaysFree) {
  World w;
  w.add_rectangle({{0.0, 0.0}, {2.0, 2.0}});
  RasterizeOptions opt;
  const OccupancyGrid g = rasterize(w, opt);
  EXPECT_EQ(g.state_at({1.0, 1.0}), CellState::kFree);
  EXPECT_EQ(g.state_at({0.3, 1.7}), CellState::kFree);
  EXPECT_GT(g.count(CellState::kFree), g.count(CellState::kOccupied));
}

TEST(Rasterize, UnknownInteriorFillOption) {
  World w;
  w.add_rectangle({{0.0, 0.0}, {1.0, 1.0}});
  RasterizeOptions opt;
  opt.interior_fill = CellState::kUnknown;
  const OccupancyGrid g = rasterize(w, opt);
  EXPECT_EQ(g.state_at({0.5, 0.5}), CellState::kUnknown);
}

TEST(Rasterize, DiagonalWallIsGapFree) {
  // A thin diagonal wall must not have holes a ray can slip through.
  World w;
  w.add_segment({0.0, 0.0}, {2.0, 1.3});
  RasterizeOptions opt;
  opt.wall_thickness = 0.03;  // thinner than a cell
  const OccupancyGrid g = rasterize(w, opt);
  // March along the segment at fine steps; every sample must land in an
  // occupied cell.
  const Vec2 dir = Vec2{2.0, 1.3}.normalized();
  const double len = Vec2{2.0, 1.3}.norm();
  for (double t = 0.0; t <= len; t += 0.01) {
    const Vec2 p = Vec2{0.0, 0.0} + dir * t;
    EXPECT_EQ(g.state_at(p), CellState::kOccupied) << "t=" << t;
  }
}

TEST(Rasterize, ThickWallSpansMultipleCells) {
  World w;
  w.add_segment({1.0, 0.0}, {1.0, 2.0});
  RasterizeOptions opt;
  opt.wall_thickness = 0.15;  // three cells wide
  const OccupancyGrid g = rasterize(w, opt);
  EXPECT_EQ(g.state_at({1.0 - 0.06, 1.0}), CellState::kOccupied);
  EXPECT_EQ(g.state_at({1.0 + 0.06, 1.0}), CellState::kOccupied);
  // First cell inside the margin (center 0.875, 0.125 from the wall axis)
  // stays free.
  EXPECT_EQ(g.state_at({0.87, 1.0}), CellState::kFree);
}

TEST(Rasterize, OccupiedExactlyWithinWallInflation) {
  // The painted walls are inflated: a cell is Occupied iff its center lies
  // within max(wall_thickness/2, half a cell diagonal) of some segment.
  // World::clearance measures that distance with the same arithmetic as
  // rasterize_segment, so the check is exact, cell by cell. The world has
  // a closed box, a diagonal wall with free ends and a degenerate
  // (point) segment; thicknesses below and above the cell diagonal pick
  // either side of the max.
  World w;
  w.add_rectangle({{0.0, 0.0}, {3.0, 2.0}});
  w.add_segment({0.4, 0.3}, {2.1, 1.55});
  w.add_segment({2.6, 0.45}, {2.6, 0.45});
  for (const double thickness : {0.03, 0.15}) {
    RasterizeOptions opt;
    opt.wall_thickness = thickness;
    const OccupancyGrid g = rasterize(w, opt);
    const double inflation =
        std::max(thickness / 2.0, opt.resolution * 0.5 * std::numbers::sqrt2);
    std::size_t occupied = 0;
    for (int y = 0; y < g.height(); ++y) {
      for (int x = 0; x < g.width(); ++x) {
        const bool inside = w.clearance(g.cell_center({x, y})) <= inflation;
        EXPECT_EQ(g.is_occupied({x, y}), inside)
            << "thickness=" << thickness << " cell=(" << x << ", " << y
            << ")";
        occupied += inside;
      }
    }
    EXPECT_GT(occupied, 0u);
  }
}

TEST(RasterizeSegment, PaintsIntoExistingGrid) {
  OccupancyGrid g(20, 20, 0.05, {0.0, 0.0}, CellState::kFree);
  rasterize_segment(g, {{0.1, 0.1}, {0.9, 0.1}}, 0.05);
  EXPECT_EQ(g.state_at({0.5, 0.1}), CellState::kOccupied);
  EXPECT_EQ(g.state_at({0.5, 0.5}), CellState::kFree);
}

TEST(Rasterize, RaycastAgreesWithAnalyticWorld) {
  // The analytic hit point lies on a wall, so the rasterized grid must
  // have that point's cell Occupied (the inflation bound itself is
  // OccupiedExactlyWithinWallInflation).
  World w;
  w.add_rectangle({{0.0, 0.0}, {3.0, 2.0}});
  RasterizeOptions opt;
  const OccupancyGrid g = rasterize(w, opt);
  for (const double angle : {0.0, kPi / 3.0, kPi / 2.0, -2.0}) {
    const auto hit = w.raycast({1.5, 1.0}, angle, 10.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(g.state_at(hit->point), CellState::kOccupied)
        << "angle=" << angle;
  }
}

}  // namespace
}  // namespace tofmcl::map
