// Tests for the named synthetic grid cases: registry consistency, the
// promise that data/synthetic_cases.json mirrors synthetic_specs(), and
// the structural properties the scaling benchmarks rely on (connected
// topology, deterministic rebuild, realistic line/bus ratio).
#include "grid/synthetic.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "grid/grid.h"
#include "grid/ieee_cases.h"

namespace psse::grid {
namespace {

TEST(GridSynthetic, RegistryIsConsistent) {
  const auto& specs = cases::synthetic_specs();
  ASSERT_EQ(specs.size(), 3u);
  ASSERT_EQ(cases::synthetic_names().size(), specs.size());
  for (const cases::SyntheticSpec& s : specs) {
    SCOPED_TRACE(s.name);
    EXPECT_EQ(cases::synthetic_spec(s.name).buses, s.buses);
    // ~2.9 average degree, the transmission-grid ballpark.
    EXPECT_NEAR(static_cast<double>(s.lines) / s.buses, 1.45, 0.05);
    EXPECT_GT(s.meas_fraction, 0.5);
    EXPECT_LE(s.meas_fraction, 1.0);
  }
  EXPECT_THROW((void)cases::synthetic_spec("synth7"), GridError);
  EXPECT_THROW(cases::synthetic_by_name("ieee300"), GridError);
}

TEST(GridSynthetic, CasesBuildConnectedAndDeterministic) {
  for (const std::string& name : cases::synthetic_names()) {
    SCOPED_TRACE(name);
    const cases::SyntheticSpec& spec = cases::synthetic_spec(name);
    Grid g = cases::synthetic_by_name(name);
    EXPECT_EQ(g.num_buses(), spec.buses);
    EXPECT_EQ(g.num_lines(), spec.lines);
    EXPECT_TRUE(g.is_connected());
    // Same spec, same topology: the benches depend on run-to-run identity.
    Grid again = cases::synthetic_by_name(name);
    ASSERT_EQ(again.num_lines(), g.num_lines());
    for (LineId l = 0; l < g.num_lines(); ++l) {
      EXPECT_EQ(again.line(l).from, g.line(l).from);
      EXPECT_EQ(again.line(l).to, g.line(l).to);
      EXPECT_DOUBLE_EQ(again.line(l).admittance, g.line(l).admittance);
    }
  }
}

#ifdef PSSE_DATA_DIR
TEST(GridSynthetic, ManifestMatches) {
  // data/synthetic_cases.json documents the registry for non-C++ tooling.
  // Rather than grow a JSON parser, check that every registered field
  // combination appears verbatim in the manifest and that it names no
  // cases beyond the registered ones.
  std::ifstream in(std::string(PSSE_DATA_DIR) + "/synthetic_cases.json");
  ASSERT_TRUE(in.good()) << "data/synthetic_cases.json missing";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string manifest = buf.str();

  std::size_t named = 0;
  for (std::size_t pos = manifest.find("\"name\""); pos != std::string::npos;
       pos = manifest.find("\"name\"", pos + 1)) {
    ++named;
  }
  const auto& specs = cases::synthetic_specs();
  EXPECT_EQ(named, specs.size())
      << "manifest lists a different number of cases than the registry";
  for (const cases::SyntheticSpec& s : specs) {
    SCOPED_TRACE(s.name);
    std::ostringstream row;
    row << "{\"name\": \"" << s.name << "\", \"buses\": " << s.buses
        << ", \"lines\": " << s.lines << ", \"seed\": " << s.seed
        << ", \"meas_fraction\": " << s.meas_fraction
        << ", \"meas_seed\": " << s.meas_seed << "}";
    EXPECT_NE(manifest.find(row.str()), std::string::npos)
        << "manifest row out of sync with synthetic_specs(): expected\n  "
        << row.str();
  }
}
#endif

}  // namespace
}  // namespace psse::grid
