#include "sim/worldgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "map/distance_map.hpp"
#include "plan/astar.hpp"

namespace tofmcl::sim {

namespace {

constexpr double kPillarSide = 0.15;
constexpr double kPlanResolution = 0.05;

// The building every generator lays out: 9 m × 6 m, with rooms and aisles
// sized so walls stay inside the ToF ranging distance (4 m) and mostly
// inside the EDT truncation radius (1.5 m). Doorways must pass the drone
// (Crazyflie diameter ≈ 0.1 m) with control margin.
constexpr double kWidth = 9.0;
constexpr double kHeight = 6.0;
constexpr double kDoorway = 0.7;
constexpr double kDroneDiameter = 0.1;

// Office: central corridor width, and the room-width range along it.
constexpr double kCorridor = 1.4;
constexpr double kMinRoom = 1.8;
constexpr double kMaxRoom = 3.2;

// Warehouse: shelving/pallet boxes to attempt, their edge range, and the
// guaranteed aisle between boxes and walls.
constexpr std::size_t kClutterCount = 12;
constexpr double kClutterMin = 0.35;
constexpr double kClutterMax = 0.9;
constexpr double kAisle = 0.8;

// Loop corridor: ring width around the solid core, and the number of
// symmetry-breaking wall pillars.
constexpr double kLoopCorridor = 1.2;
constexpr std::size_t kLoopPillars = 5;

static_assert(kWidth >= 4.0 && kHeight >= 4.0,
              "generated worlds must be at least 4 m x 4 m");
static_assert(kDoorway >= kDroneDiameter + 0.4,
              "doorways must pass the drone with control margin");
static_assert(kMinRoom >= kDoorway + 0.3,
              "rooms must be wide enough to hold a doorway");
static_assert(kMaxRoom > kMinRoom, "max room must exceed min");
static_assert(kCorridor >= 0.8 && kLoopCorridor >= 0.8,
              "corridors must be flyable");
static_assert(kClutterMin > 0.0 && kClutterMax >= kClutterMin,
              "clutter size range is inverted");
static_assert(kHeight / 2.0 - kCorridor / 2.0 >= kMinRoom * 0.6,
              "office too low for rooms on both corridor sides");
static_assert(kWidth > 3.0 * kLoopCorridor && kHeight > 3.0 * kLoopCorridor,
              "loop corridor leaves no solid core");

/// Planner settings for tour construction: clearance floor well above the
/// rasterized wall inflation plus the controller's corner-cutting
/// tolerance, so flown paths never clip a wall.
plan::PlannerConfig tour_planner() {
  plan::PlannerConfig pc;
  pc.min_clearance_m = 0.2;
  pc.comfort_clearance_m = 0.45;
  return pc;
}

/// Splits [0, span] into segments of width ∈ [min_w, ~max_w]; returns the
/// interior cut positions (strictly inside the span).
std::vector<double> split_span(double span, double min_w, double max_w,
                               Rng& rng) {
  std::vector<double> cuts;
  double x = 0.0;
  while (span - x > max_w) {
    double w = rng.uniform(min_w, max_w);
    if (span - (x + w) < min_w) break;  // remainder becomes the last room
    x += w;
    cuts.push_back(x);
  }
  return cuts;
}

/// A square feature pillar mounted on a wall, like the boxes in the
/// paper's physical maze: gives straight walls a range fingerprint inside
/// the EDT truncation radius.
void add_pillar(map::World& world, Vec2 corner) {
  world.add_rectangle({corner, corner + Vec2{kPillarSide, kPillarSide}});
}

/// A horizontal wall along y over [x0, x1] with door gaps cut out.
/// `gaps` holds (start, end) pairs, assumed sorted and disjoint.
void add_wall_with_gaps(map::World& world, double y, double x0, double x1,
                        const std::vector<std::pair<double, double>>& gaps) {
  double x = x0;
  for (const auto& [g0, g1] : gaps) {
    if (g0 - x > 1e-9) world.add_segment({x, y}, {g0, y});
    x = g1;
  }
  if (x1 - x > 1e-9) world.add_segment({x, y}, {x1, y});
}

void build_office(Rng& rng, EvaluationEnvironment& env,
                  std::vector<Vec2>& pois) {
  const double w = kWidth;
  const double h = kHeight;
  const double y_lo = h / 2.0 - kCorridor / 2.0;
  const double y_hi = h / 2.0 + kCorridor / 2.0;
  env.world.add_rectangle({{0.0, 0.0}, {w, h}});

  // One band of rooms on each side of the corridor. Each band: vertical
  // partition walls at the cuts, a corridor-facing wall with one doorway
  // per room, and a feature pillar on the exterior wall of every room.
  const auto build_band = [&](double band_lo, double band_hi, bool top) {
    const std::vector<double> cuts =
        split_span(w, kMinRoom, kMaxRoom, rng);
    for (const double cut : cuts) {
      env.world.add_segment({cut, band_lo}, {cut, band_hi});
    }
    std::vector<double> edges{0.0};
    edges.insert(edges.end(), cuts.begin(), cuts.end());
    edges.push_back(w);
    const double wall_y = top ? band_lo : band_hi;
    std::vector<std::pair<double, double>> gaps;
    for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
      const double r0 = edges[i];
      const double r1 = edges[i + 1];
      const double g0 =
          rng.uniform(r0 + kPillarSide, r1 - kPillarSide - kDoorway);
      gaps.emplace_back(g0, g0 + kDoorway);
      // Pillar against the exterior wall, away from the partition walls.
      const double px = rng.uniform(r0 + 0.2, r1 - 0.2 - kPillarSide);
      add_pillar(env.world,
                 {px, top ? h - kPillarSide : 0.0});
      pois.push_back({(r0 + r1) / 2.0, (band_lo + band_hi) / 2.0});
    }
    add_wall_with_gaps(env.world, wall_y, 0.0, w, gaps);
  };
  build_band(y_hi, h, true);
  build_band(0.0, y_lo, false);

  // A pillar on one corridor end wall disambiguates the corridor's two
  // directions even before a doorway comes into view.
  const double py = rng.uniform(y_lo + 0.1, y_hi - 0.1 - kPillarSide);
  add_pillar(env.world, {0.0, py});

  pois.push_back({0.7, h / 2.0});
  pois.push_back({w - 0.7, h / 2.0});
}

double point_box_distance(Vec2 p, const Aabb& box) {
  const double dx =
      std::max({box.min.x - p.x, 0.0, p.x - box.max.x});
  const double dy =
      std::max({box.min.y - p.y, 0.0, p.y - box.max.y});
  return std::hypot(dx, dy);
}

void build_warehouse(Rng& rng, EvaluationEnvironment& env,
                     std::vector<Vec2>& pois) {
  const double w = kWidth;
  const double h = kHeight;
  env.world.add_rectangle({{0.0, 0.0}, {w, h}});

  // Shelving/pallet boxes dropped by rejection sampling: every box keeps
  // an aisle of at least kAisle to every other box and to the exterior
  // walls, so the hall stays fully connected.
  std::vector<Aabb> boxes;
  for (std::size_t i = 0; i < kClutterCount; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double bw = rng.uniform(kClutterMin, kClutterMax);
      const double bh = rng.uniform(kClutterMin, kClutterMax);
      const double x0 = rng.uniform(kAisle, w - kAisle - bw);
      const double y0 = rng.uniform(kAisle, h - kAisle - bh);
      const Aabb box{{x0, y0}, {x0 + bw, y0 + bh}};
      const bool clear = std::none_of(
          boxes.begin(), boxes.end(), [&](const Aabb& other) {
            return box.min.x - kAisle < other.max.x &&
                   box.max.x + kAisle > other.min.x &&
                   box.min.y - kAisle < other.max.y &&
                   box.max.y + kAisle > other.min.y;
          });
      if (!clear) continue;
      env.world.add_rectangle(box);
      env.solid_regions.push_back(box);
      boxes.push_back(box);
      break;
    }
  }

  // Landmark points between the clutter: well clear of every box and
  // wall, mutually separated so tours actually traverse the hall.
  for (int attempt = 0; attempt < 400 && pois.size() < 6; ++attempt) {
    const Vec2 p{rng.uniform(0.7, w - 0.7), rng.uniform(0.7, h - 0.7)};
    const bool clear_of_boxes = std::all_of(
        boxes.begin(), boxes.end(),
        [&](const Aabb& b) { return point_box_distance(p, b) >= 0.5; });
    const bool separated = std::all_of(
        pois.begin(), pois.end(),
        [&](Vec2 q) { return (p - q).norm() >= 1.5; });
    if (clear_of_boxes && separated) pois.push_back(p);
  }
  TOFMCL_EXPECTS(pois.size() >= 3,
                 "warehouse generation left too few traversable landmarks");
}

void build_loop(Rng& rng, EvaluationEnvironment& env,
                std::vector<Vec2>& pois) {
  const double w = kWidth;
  const double h = kHeight;
  const double ring = kLoopCorridor;
  env.world.add_rectangle({{0.0, 0.0}, {w, h}});
  const Aabb core{{ring, ring}, {w - ring, h - ring}};
  env.world.add_rectangle(core);
  env.solid_regions.push_back(core);

  // A bare ring is 180°-symmetric AND featureless along its straights
  // (the end walls sit beyond the ToF range on long sides), so both the
  // flip hypothesis and longitudinal drift must be broken by geometry:
  //  * bays — large storage alcoves bulging from the core into the ring —
  //    vary the corridor width over meter-scale spans (strong, always
  //    in-range longitudinal features), and
  //  * pillars at seeded random spots fingerprint the remaining walls.
  // One bay per side, placed asymmetrically.
  const double bay_depth =
      std::min(0.3, ring - kDoorway - 0.1);  // keep the ring flyable
  for (int side = 0; side < 4; ++side) {
    const bool horizontal = side == 0 || side == 1;
    const double side_len = (horizontal ? w : h) - 2.0 * (ring + 0.8);
    if (side_len < 1.2 || bay_depth < 0.15) continue;
    const double len = rng.uniform(1.0, std::min(2.0, side_len));
    const double pos = ring + 0.8 + rng.uniform(0.0, side_len - len);
    Aabb bay;
    switch (side) {
      case 0: bay = {{pos, core.min.y - bay_depth},
                     {pos + len, core.min.y}}; break;
      case 1: bay = {{pos, core.max.y},
                     {pos + len, core.max.y + bay_depth}}; break;
      case 2: bay = {{core.min.x - bay_depth, pos},
                     {core.min.x, pos + len}}; break;
      default: bay = {{core.max.x, pos},
                      {core.max.x + bay_depth, pos + len}}; break;
    }
    env.world.add_rectangle(bay);
    env.solid_regions.push_back(bay);
  }
  for (std::size_t i = 0; i < kLoopPillars; ++i) {
    const int side = static_cast<int>(rng.uniform_index(4));
    const bool horizontal = side == 0 || side == 1;
    const double span = (horizontal ? w : h) - 2.0 * (ring + 0.6);
    const double pos = ring + 0.6 + rng.uniform(0.0, span - kPillarSide);
    Vec2 corner;
    switch (side) {
      case 0: corner = {pos, 0.0}; break;
      case 1: corner = {pos, h - kPillarSide}; break;
      case 2: corner = {0.0, pos}; break;
      default: corner = {w - kPillarSide, pos}; break;
    }
    add_pillar(env.world, corner);
  }

  const double mid = ring / 2.0;
  pois.push_back({mid, mid});
  pois.push_back({w - mid, mid});
  pois.push_back({w - mid, h - mid});
  pois.push_back({mid, h - mid});
}

/// Orders the points as a nearest-neighbor tour starting from index 0.
std::vector<Vec2> tour_order(const std::vector<Vec2>& pois) {
  std::vector<Vec2> remaining(pois.begin() + 1, pois.end());
  std::vector<Vec2> tour{pois.front()};
  while (!remaining.empty()) {
    const Vec2 cur = tour.back();
    const auto next = std::min_element(
        remaining.begin(), remaining.end(), [&](Vec2 a, Vec2 b) {
          return (a - cur).squared_norm() < (b - cur).squared_norm();
        });
    tour.push_back(*next);
    remaining.erase(next);
  }
  return tour;
}

FlightPlan plan_from_waypoints(std::string name,
                               const std::vector<Vec2>& points,
                               double speed) {
  TOFMCL_EXPECTS(points.size() >= 2, "flight plan needs at least two points");
  FlightPlan plan;
  plan.name = std::move(name);
  const Vec2 first_leg = points[1] - points[0];
  plan.start = {points[0], std::atan2(first_leg.y, first_leg.x)};
  for (std::size_t i = 1; i < points.size(); ++i) {
    plan.path.push_back({points[i], speed});
  }
  // Tighter waypoint tolerance than the hand-tuned maze plans: generated
  // corridors were planned with 0.2 m clearance, so corner cutting must
  // stay inside that margin.
  plan.controller.waypoint_tolerance_m = 0.1;
  return plan;
}

/// Plans the tour route through the rasterized world and converts it into
/// the standard three flight plans. Throws when any landmark is
/// unreachable — the structural invariant of every generated world.
std::vector<FlightPlan> make_plans(const GeneratedWorld& world,
                                   const std::vector<Vec2>& pois) {
  const map::OccupancyGrid grid =
      rasterize_environment(world.env, kPlanResolution, 0.0);
  const map::DistanceMap distance(grid, 1.0);
  const plan::PlannerConfig pc = tour_planner();

  const std::vector<Vec2> tour = tour_order(pois);
  std::vector<Vec2> route{tour.front()};
  for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
    const auto leg = plan::plan_path(grid, distance, tour[i], tour[i + 1], pc);
    TOFMCL_EXPECTS(leg.has_value(),
                   "generated world has an unreachable landmark");
    // Skip the leg's first waypoint: it coincides with the previous leg's
    // last one.
    route.insert(route.end(), leg->waypoints.begin() + 1,
                 leg->waypoints.end());
  }

  const std::string base =
      std::string(to_string(world.kind)) + "_s" +
      std::to_string(world.config.seed);
  std::vector<FlightPlan> plans;
  std::vector<Vec2> reversed(route.rbegin(), route.rend());
  if (world.config.tour_laps > 1) {
    // Patrol: retrace the planned route out-and-back so every lap starts
    // where the previous one ended — no extra planning, and the path stays
    // inside the validated clearance corridor for any lap count.
    std::vector<Vec2> patrol = route;
    for (std::size_t lap = 1; lap < world.config.tour_laps; ++lap) {
      const std::vector<Vec2>& leg = (lap % 2 == 1) ? reversed : route;
      patrol.insert(patrol.end(), leg.begin() + 1, leg.end());
    }
    plans.push_back(plan_from_waypoints(
        base + "_patrol_x" + std::to_string(world.config.tour_laps), patrol,
        0.35));
  } else {
    plans.push_back(plan_from_waypoints(base + "_tour", route, 0.35));
  }
  plans.push_back(plan_from_waypoints(base + "_reverse", reversed, 0.35));

  // Shuttle: out and back between the tour start and the farthest
  // landmark, following the already-planned tour route up to it.
  std::size_t far_idx = 1;
  double far_d = 0.0;
  for (std::size_t i = 1; i < tour.size(); ++i) {
    const double d = (tour[i] - tour.front()).norm();
    if (d > far_d) {
      far_d = d;
      far_idx = i;
    }
  }
  const auto leg =
      plan::plan_path(grid, distance, tour.front(), tour[far_idx], pc);
  TOFMCL_EXPECTS(leg.has_value(),
                 "generated world has an unreachable landmark");
  std::vector<Vec2> shuttle = leg->waypoints;
  shuttle.insert(shuttle.end(), leg->waypoints.rbegin() + 1,
                 leg->waypoints.rend());
  plans.push_back(plan_from_waypoints(base + "_shuttle", shuttle, 0.4));
  return plans;
}

}  // namespace

const char* to_string(GeneratedWorldKind kind) {
  switch (kind) {
    case GeneratedWorldKind::kOffice:
      return "office";
    case GeneratedWorldKind::kWarehouse:
      return "warehouse";
    case GeneratedWorldKind::kLoopCorridor:
      return "loop_corridor";
  }
  return "unknown";
}

const char* to_string(MutationLevel level) {
  switch (level) {
    case MutationLevel::kNone:
      return "none";
    case MutationLevel::kLight:
      return "light";
    case MutationLevel::kHeavy:
      return "heavy";
  }
  return "unknown";
}

namespace {

/// Clearance every added or moved wall keeps to the flight routes, so the
/// recorded tours stay flyable through the mutated world (m).
constexpr double kRouteClearance = 0.4;
/// Added-box edge range (m).
constexpr double kAddedClutterMin = 0.3;
constexpr double kAddedClutterMax = 0.6;
static_assert(kRouteClearance >= 0.15,
              "route clearance below the flyable floor");
static_assert(kAddedClutterMin > 0.0 && kAddedClutterMax >= kAddedClutterMin,
              "clutter size range is inverted");

/// Distance from point p to the segment a–b.
double point_segment_distance(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len2 = ab.squared_norm();
  if (len2 <= 0.0) return (p - a).norm();
  const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
  return (p - (a + ab * t)).norm();
}

/// Distance between two segments (0 when they intersect).
double segment_segment_distance(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const Vec2 ab = b - a;
  const Vec2 cd = d - c;
  const double d1 = ab.cross(c - a);
  const double d2 = ab.cross(d - a);
  const double d3 = cd.cross(a - c);
  const double d4 = cd.cross(b - c);
  if (((d1 > 0.0) != (d2 > 0.0)) && ((d3 > 0.0) != (d4 > 0.0))) return 0.0;
  return std::min(
      std::min(point_segment_distance(a, c, d),
               point_segment_distance(b, c, d)),
      std::min(point_segment_distance(c, a, b),
               point_segment_distance(d, a, b)));
}

/// Distance from segment a–b to an axis-aligned box (0 when intersecting
/// or inside).
double segment_box_distance(Vec2 a, Vec2 b, const Aabb& box) {
  if (box.contains(a) || box.contains(b)) return 0.0;
  const Vec2 corners[4] = {box.min,
                           {box.max.x, box.min.y},
                           box.max,
                           {box.min.x, box.max.y}};
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 4; ++i) {
    best = std::min(best, segment_segment_distance(a, b, corners[i],
                                                   corners[(i + 1) % 4]));
  }
  return best;
}

/// Every flight-route polyline (start pose + waypoints), ready for
/// clearance checks against candidate mutations.
std::vector<std::vector<Vec2>> route_polylines(
    const std::vector<FlightPlan>& plans) {
  std::vector<std::vector<Vec2>> routes;
  routes.reserve(plans.size());
  for (const FlightPlan& plan : plans) {
    std::vector<Vec2> route{plan.start.position};
    for (const Waypoint& wp : plan.path) route.push_back(wp.position);
    routes.push_back(std::move(route));
  }
  return routes;
}

double routes_to_box_distance(const std::vector<std::vector<Vec2>>& routes,
                              const Aabb& box) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& route : routes) {
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      best = std::min(best,
                      segment_box_distance(route[i], route[i + 1], box));
    }
  }
  return best;
}

double routes_to_segment_distance(
    const std::vector<std::vector<Vec2>>& routes, Vec2 a, Vec2 b) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& route : routes) {
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      best = std::min(best,
                      segment_segment_distance(route[i], route[i + 1], a, b));
    }
  }
  return best;
}

bool nearly_equal(Vec2 a, Vec2 b) {
  return std::abs(a.x - b.x) < 1e-9 && std::abs(a.y - b.y) < 1e-9;
}

/// Removes the four outline segments of `box` from the world (they were
/// added by add_rectangle with these exact corners). Returns false — and
/// leaves the world untouched — when not all four edges are present.
bool remove_box_outline(map::World& world, const Aabb& box) {
  const Vec2 bl = box.min;
  const Vec2 br{box.max.x, box.min.y};
  const Vec2 tr = box.max;
  const Vec2 tl{box.min.x, box.max.y};
  const std::pair<Vec2, Vec2> edges[4] = {
      {bl, br}, {br, tr}, {tr, tl}, {tl, bl}};
  std::vector<map::Segment> kept;
  kept.reserve(world.segments().size());
  bool found[4] = {false, false, false, false};
  for (const map::Segment& s : world.segments()) {
    bool is_edge = false;
    for (int i = 0; i < 4; ++i) {
      if (found[i]) continue;
      const auto& [ea, eb] = edges[i];
      if ((nearly_equal(s.a, ea) && nearly_equal(s.b, eb)) ||
          (nearly_equal(s.a, eb) && nearly_equal(s.b, ea))) {
        found[i] = true;
        is_edge = true;
        break;
      }
    }
    if (!is_edge) kept.push_back(s);
  }
  if (!(found[0] && found[1] && found[2] && found[3])) return false;
  world = map::World(std::move(kept));
  return true;
}

/// True when `box`, inflated by `margin`, is clear of every world segment,
/// every solid region, every route polyline (by kRouteClearance) and lies
/// inside one maze region away from its border.
bool box_placement_clear(const EvaluationEnvironment& env,
                         const std::vector<std::vector<Vec2>>& routes,
                         const Aabb& box, double margin) {
  const Aabb inflated{{box.min.x - margin, box.min.y - margin},
                      {box.max.x + margin, box.max.y + margin}};
  const bool inside_region = std::any_of(
      env.maze_regions.begin(), env.maze_regions.end(),
      [&](const Aabb& region) {
        return inflated.min.x > region.min.x &&
               inflated.min.y > region.min.y &&
               inflated.max.x < region.max.x && inflated.max.y < region.max.y;
      });
  if (!inside_region) return false;
  for (const Aabb& solid : env.solid_regions) {
    if (inflated.min.x < solid.max.x && inflated.max.x > solid.min.x &&
        inflated.min.y < solid.max.y && inflated.max.y > solid.min.y) {
      return false;
    }
  }
  for (const map::Segment& s : env.world.segments()) {
    if (segment_box_distance(s.a, s.b, inflated) <= 0.0) return false;
  }
  return routes_to_box_distance(routes, box) >= kRouteClearance;
}

/// A doorway: a gap between two collinear axis-aligned wall segments.
struct Doorway {
  Vec2 a;  ///< Gap start (end of one wall).
  Vec2 b;  ///< Gap end (start of the next wall).
};

/// Detects doorway-sized gaps between collinear wall runs along one axis.
/// `horizontal` selects segments with equal y (gaps along x) vs equal x.
void detect_doorways(const map::World& world, bool horizontal,
                     std::vector<Doorway>& out) {
  struct Run {
    double line;  ///< Shared coordinate (y for horizontal walls).
    double lo, hi;
  };
  std::vector<Run> runs;
  for (const map::Segment& s : world.segments()) {
    if (horizontal && std::abs(s.a.y - s.b.y) < 1e-9) {
      runs.push_back({s.a.y, std::min(s.a.x, s.b.x), std::max(s.a.x, s.b.x)});
    } else if (!horizontal && std::abs(s.a.x - s.b.x) < 1e-9) {
      runs.push_back({s.a.x, std::min(s.a.y, s.b.y), std::max(s.a.y, s.b.y)});
    }
  }
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return std::tie(a.line, a.lo) < std::tie(b.line, b.lo);
  });
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    const Run& cur = runs[i];
    const Run& next = runs[i + 1];
    if (std::abs(cur.line - next.line) > 1e-9) continue;
    const double gap = next.lo - cur.hi;
    if (gap < 0.4 || gap > 1.2) continue;
    if (horizontal) {
      out.push_back({{cur.hi, cur.line}, {next.lo, cur.line}});
    } else {
      out.push_back({{cur.line, cur.hi}, {cur.line, next.lo}});
    }
  }
}

/// Drone-corridor floor a narrowed doorway must keep: diameter plus the
/// controller's waypoint tolerance on both sides.
constexpr double kMinNarrowedGap = 0.55;

/// Validation planner: traversability floor well below every clearance the
/// operators keep, so a passing mutation can never strand the tour.
plan::PlannerConfig validation_planner() {
  plan::PlannerConfig pc;
  pc.min_clearance_m = 0.08;
  pc.comfort_clearance_m = 0.2;
  return pc;
}

}  // namespace

EvaluationEnvironment mutate_world(const EvaluationEnvironment& env,
                                   const std::vector<FlightPlan>& plans,
                                   MutationLevel level, std::uint64_t seed,
                                   MutationSummary* summary) {
  MutationSummary local;
  MutationSummary& out = summary != nullptr ? *summary : local;
  out = {};
  if (level == MutationLevel::kNone) return env;
  TOFMCL_EXPECTS(!env.maze_regions.empty(),
                 "mutation needs at least one structured region to work in");

  // Operator counts per level: ceilings, since operators are rejection
  // sampled.
  const bool heavy = level == MutationLevel::kHeavy;
  const std::size_t n_clutter = heavy ? 8 : 3;
  const std::size_t n_moved = heavy ? 3 : 1;
  const std::size_t n_removed = heavy ? 2 : 0;
  const std::size_t n_doors = heavy ? 3 : 1;

  EvaluationEnvironment mutated = env;
  const std::vector<std::vector<Vec2>> routes = route_polylines(plans);
  // Decorrelate from the worldgen stream: mutation seed 1 must not replay
  // generator seed 1's draws.
  Rng rng(SplitMix64(seed ^ 0xA5A5F00DD00DF005ULL).next());

  // 1. Remove solid boxes (vanished shelving; a removed loop bay widens
  //    the ring). Large blobs — the loop core — are structural, not
  //    furniture: never touch boxes above the furniture-area ceiling.
  const auto movable = [&](const Aabb& box) { return box.area() <= 2.0; };
  for (std::size_t i = 0; i < n_removed; ++i) {
    std::vector<std::size_t> candidates;
    for (std::size_t j = 0; j < mutated.solid_regions.size(); ++j) {
      if (movable(mutated.solid_regions[j])) candidates.push_back(j);
    }
    if (candidates.empty()) break;
    const std::size_t pick = candidates[rng.uniform_index(candidates.size())];
    const Aabb box = mutated.solid_regions[pick];
    if (!remove_box_outline(mutated.world, box)) continue;
    mutated.solid_regions.erase(mutated.solid_regions.begin() +
                                static_cast<std::ptrdiff_t>(pick));
    ++out.boxes_removed;
  }

  // 2. Move solid boxes: remove, then rejection-sample a nearby placement
  //    keeping the aisle margin and route clearance. An unplaceable box is
  //    restored where it stood.
  for (std::size_t i = 0; i < n_moved; ++i) {
    std::vector<std::size_t> candidates;
    for (std::size_t j = 0; j < mutated.solid_regions.size(); ++j) {
      if (movable(mutated.solid_regions[j])) candidates.push_back(j);
    }
    if (candidates.empty()) break;
    const std::size_t pick = candidates[rng.uniform_index(candidates.size())];
    const Aabb box = mutated.solid_regions[pick];
    if (!remove_box_outline(mutated.world, box)) continue;
    mutated.solid_regions.erase(mutated.solid_regions.begin() +
                                static_cast<std::ptrdiff_t>(pick));
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const Vec2 shift{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
      const Aabb moved{box.min + shift, box.max + shift};
      if (!box_placement_clear(mutated, routes, moved, 0.25)) continue;
      mutated.world.add_rectangle(moved);
      mutated.solid_regions.push_back(moved);
      placed = true;
    }
    if (placed) {
      ++out.boxes_moved;
    } else {
      mutated.world.add_rectangle(box);
      mutated.solid_regions.push_back(box);
    }
  }

  // 3. Close or narrow doorways. A gap the routes never thread can be
  //    walled off entirely; a gap on the route is narrowed symmetrically,
  //    never below the drone-corridor floor.
  std::vector<Doorway> doors;
  detect_doorways(mutated.world, true, doors);
  detect_doorways(mutated.world, false, doors);
  std::size_t applied = 0;
  for (std::size_t i = 0; i < doors.size() && applied < n_doors; ++i) {
    // Deterministic random order: swap a remaining candidate forward.
    const std::size_t pick = i + rng.uniform_index(doors.size() - i);
    std::swap(doors[i], doors[pick]);
    const Doorway& door = doors[i];
    if (routes_to_segment_distance(routes, door.a, door.b) >=
        kRouteClearance) {
      mutated.world.add_segment(door.a, door.b);
      ++out.doors_closed;
      ++applied;
      continue;
    }
    const double gap = (door.b - door.a).norm();
    const double shrink = std::min(0.15, (gap - kMinNarrowedGap) / 2.0);
    if (shrink < 0.05) continue;
    const Vec2 dir = (door.b - door.a).normalized();
    mutated.world.add_segment(door.a, door.a + dir * shrink);
    mutated.world.add_segment(door.b - dir * shrink, door.b);
    ++out.doors_narrowed;
    ++applied;
  }

  // 4. Scatter people/cart-sized static clutter into free space, clear of
  //    the routes. Each box is a solid region: outline Occupied, interior
  //    Unknown — the loop-corridor lesson applies to mutations too.
  for (std::size_t i = 0; i < n_clutter; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t region_idx =
          rng.uniform_index(mutated.maze_regions.size());
      const Aabb& region = mutated.maze_regions[region_idx];
      const double bw = rng.uniform(kAddedClutterMin, kAddedClutterMax);
      const double bh = rng.uniform(kAddedClutterMin, kAddedClutterMax);
      if (region.width() < bw + 0.6 || region.height() < bh + 0.6) continue;
      const double x0 =
          rng.uniform(region.min.x + 0.2, region.max.x - 0.2 - bw);
      const double y0 =
          rng.uniform(region.min.y + 0.2, region.max.y - 0.2 - bh);
      const Aabb box{{x0, y0}, {x0 + bw, y0 + bh}};
      if (!box_placement_clear(mutated, routes, box, 0.2)) continue;
      mutated.world.add_rectangle(box);
      mutated.solid_regions.push_back(box);
      ++out.clutter_added;
      break;
    }
  }

  // Re-validate: every plan's waypoint chain must still be A*-traversable
  // in the mutated world — the tour-reachability invariant, checked on the
  // same rasterized substrate campaigns fly through.
  const map::OccupancyGrid grid =
      rasterize_environment(mutated, kPlanResolution, 0.0);
  const map::DistanceMap distance(grid, 1.0);
  const plan::PlannerConfig pc = validation_planner();
  for (const FlightPlan& plan : plans) {
    Vec2 prev = plan.start.position;
    for (const Waypoint& wp : plan.path) {
      TOFMCL_EXPECTS(
          plan::plan_path(grid, distance, prev, wp.position, pc).has_value(),
          "map mutation severed a flight route");
      prev = wp.position;
    }
  }
  return mutated;
}

GeneratedWorld generate_world(GeneratedWorldKind kind,
                              const WorldGenConfig& config) {
  TOFMCL_EXPECTS(config.tour_laps >= 1, "a tour needs at least one lap");
  GeneratedWorld world;
  world.kind = kind;
  world.config = config;

  // Decorrelate the kinds: the same seed must not produce eerily similar
  // geometry across generators.
  Rng rng(SplitMix64(config.seed ^
                     0x9E3779B97F4A7C15ULL *
                         (static_cast<std::uint64_t>(kind) + 1))
              .next());

  switch (kind) {
    case GeneratedWorldKind::kOffice:
      build_office(rng, world.env, world.points_of_interest);
      break;
    case GeneratedWorldKind::kWarehouse:
      build_warehouse(rng, world.env, world.points_of_interest);
      break;
    case GeneratedWorldKind::kLoopCorridor:
      build_loop(rng, world.env, world.points_of_interest);
      break;
  }
  world.env.maze_regions.push_back({{0.0, 0.0}, {kWidth, kHeight}});
  world.env.structured_area_m2 = kWidth * kHeight;
  world.plans = make_plans(world, world.points_of_interest);
  return world;
}

}  // namespace tofmcl::sim
