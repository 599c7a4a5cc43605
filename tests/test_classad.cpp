// Tests for the ClassAd expression subset: parsing, three-valued logic,
// comparisons, arithmetic, UNDEFINED semantics, the generated job
// requirements expression, and machine-level matchmaking in CondorPool.
#include <gtest/gtest.h>

#include "grid/adapter.hpp"
#include "grid/classad.hpp"
#include "grid/resource.hpp"
#include "sim/simulation.hpp"

namespace lattice::grid {
namespace {

ClassAd linux_box(double memory_mb) {
  return ClassAd{{"OpSys", std::string("LINUX")},
                 {"Arch", std::string("X86_64")},
                 {"Memory", memory_mb}};
}

TEST(ClassAdExpr, LiteralsAndAttributes) {
  EXPECT_TRUE(AdExpression::parse("TRUE").matches({}));
  EXPECT_FALSE(AdExpression::parse("FALSE").matches({}));
  EXPECT_FALSE(AdExpression::parse("UNDEFINED").matches({}));
  const auto expr = AdExpression::parse("Memory");
  const AdValue value = expr.evaluate(linux_box(2048));
  EXPECT_DOUBLE_EQ(std::get<double>(value), 2048.0);
}

TEST(ClassAdExpr, ComparisonsNumeric) {
  const ClassAd ad = linux_box(2048);
  EXPECT_TRUE(AdExpression::parse("Memory >= 1024").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory == 2048").matches(ad));
  EXPECT_FALSE(AdExpression::parse("Memory > 2048").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory != 0").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory < 4096").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory <= 2048").matches(ad));
}

TEST(ClassAdExpr, ComparisonsString) {
  const ClassAd ad = linux_box(2048);
  EXPECT_TRUE(AdExpression::parse("OpSys == \"LINUX\"").matches(ad));
  EXPECT_FALSE(AdExpression::parse("OpSys == \"WINDOWS\"").matches(ad));
  EXPECT_TRUE(AdExpression::parse("OpSys != \"WINDOWS\"").matches(ad));
}

TEST(ClassAdExpr, BooleanLogicAndPrecedence) {
  const ClassAd ad = linux_box(2048);
  EXPECT_TRUE(AdExpression::parse(
                  "OpSys == \"LINUX\" && Memory >= 1024").matches(ad));
  EXPECT_TRUE(AdExpression::parse(
                  "OpSys == \"WINDOWS\" || Memory >= 1024").matches(ad));
  EXPECT_FALSE(AdExpression::parse(
                   "OpSys == \"WINDOWS\" && Memory >= 1024").matches(ad));
  // || binds looser than &&.
  EXPECT_TRUE(AdExpression::parse(
                  "FALSE && FALSE || TRUE").matches(ad));
  EXPECT_TRUE(AdExpression::parse("!(Memory < 1024)").matches(ad));
  EXPECT_FALSE(AdExpression::parse("!TRUE").matches(ad));
}

TEST(ClassAdExpr, Arithmetic) {
  const ClassAd ad{{"Cpus", 4.0}, {"Memory", 2048.0}};
  EXPECT_TRUE(AdExpression::parse("Memory / Cpus >= 512").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Cpus * 2 == 8").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory - 48 == 2000").matches(ad));
  EXPECT_TRUE(AdExpression::parse("Memory + 0 == 2048").matches(ad));
  // Division by zero is UNDEFINED, which does not match.
  EXPECT_FALSE(AdExpression::parse("Memory / 0 == 1").matches(ad));
}

TEST(ClassAdExpr, UndefinedSemantics) {
  const ClassAd empty;
  // Missing attribute -> UNDEFINED -> no match.
  EXPECT_FALSE(AdExpression::parse("Memory >= 1024").matches(empty));
  // Condor three-valued logic: FALSE dominates UNDEFINED.
  EXPECT_FALSE(AdExpression::parse("Memory >= 1024 && FALSE").matches(empty));
  // TRUE dominates UNDEFINED for OR.
  EXPECT_TRUE(AdExpression::parse("Memory >= 1024 || TRUE").matches(empty));
  // UNDEFINED && TRUE stays UNDEFINED.
  EXPECT_FALSE(AdExpression::parse("Memory >= 1024 && TRUE").matches(empty));
}

TEST(ClassAdExpr, TypeMismatchesAreUndefined) {
  const ClassAd ad = linux_box(2048);
  EXPECT_FALSE(AdExpression::parse("OpSys == 5").matches(ad));
  EXPECT_FALSE(AdExpression::parse("Memory == \"LINUX\"").matches(ad));
}

TEST(ClassAdExpr, ParseErrors) {
  EXPECT_THROW(AdExpression::parse(""), std::runtime_error);
  EXPECT_THROW(AdExpression::parse("(Memory >= 1"), std::runtime_error);
  EXPECT_THROW(AdExpression::parse("Memory >="), std::runtime_error);
  EXPECT_THROW(AdExpression::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(AdExpression::parse("Memory ? 5"), std::runtime_error);
}

TEST(ClassAdExpr, GeneratedRequirementsExpression) {
  GridJob job;
  EXPECT_EQ(condor_requirements_expression(job), "TRUE");
  JobRequirements requirements;
  requirements.platforms = {PlatformSpec{OsType::kLinux, Arch::kX86_64}};
  requirements.min_memory_gb = 2.0;
  job.requirements = &requirements;
  const std::string expr = condor_requirements_expression(job);
  const AdExpression parsed = AdExpression::parse(expr);
  EXPECT_TRUE(parsed.matches(linux_box(2048)));
  EXPECT_FALSE(parsed.matches(linux_box(1024)));  // too little memory
  ClassAd windows = linux_box(8192);
  windows["OpSys"] = std::string("WINDOWS");
  EXPECT_FALSE(parsed.matches(windows));
}

TEST(ClassAdExpr, MultiPlatformRequirements) {
  JobRequirements requirements;
  requirements.platforms = {PlatformSpec{OsType::kLinux, Arch::kX86_64},
                            PlatformSpec{OsType::kMacOS, Arch::kX86}};
  GridJob job;
  job.requirements = &requirements;
  const AdExpression parsed =
      AdExpression::parse(condor_requirements_expression(job));
  EXPECT_TRUE(parsed.matches(linux_box(128)));
  ClassAd mac{{"OpSys", std::string("OSX")},
              {"Arch", std::string("INTEL")},
              {"Memory", 64.0}};
  EXPECT_TRUE(parsed.matches(mac));
  ClassAd ppc_mac = mac;
  ppc_mac["Arch"] = std::string("PPC");
  EXPECT_FALSE(parsed.matches(ppc_mac));
}

// ---------------------------------------------------------------------------
// Machine-level matchmaking in the pool

TEST(CondorMatchmaking, MemoryHungryJobWaitsForBigMachine) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 30;
  config.memory_sigma = 0.6;  // heterogeneous desktops
  config.mean_idle_hours = 10000.0;
  config.mean_busy_hours = 0.001;
  config.seed = 5;
  CondorPool pool(sim, "condor", config);

  // Find the biggest machine to know what is satisfiable.
  double biggest = 0.0;
  for (std::size_t m = 0; m < 30; ++m) {
    biggest = std::max(biggest,
                       std::get<double>(pool.machine_ad(m).at("Memory")));
  }

  int completed = 0;
  pool.set_completion_callback(
      [&](GridJob&, const JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });

  GridJob hungry;
  hungry.id = 1;
  hungry.true_reference_runtime = 600.0;
  JobRequirements near_top;
  near_top.min_memory_gb = biggest / 1024.0 * 0.9;
  hungry.requirements = &near_top;
  pool.submit(hungry);
  GridJob modest;
  modest.id = 2;
  modest.true_reference_runtime = 600.0;
  pool.submit(modest);
  sim.run(86400.0);
  // Both complete: the hungry job on a big machine, the modest one anywhere
  // (no head-of-line blocking).
  EXPECT_EQ(completed, 2);
}

TEST(CondorMatchmaking, UnsatisfiableJobDoesNotBlockQueue) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 5;
  config.mean_idle_hours = 10000.0;
  config.mean_busy_hours = 0.001;
  config.seed = 7;
  CondorPool pool(sim, "condor", config);
  int completed = 0;
  pool.set_completion_callback(
      [&](GridJob&, const JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  GridJob impossible;
  impossible.id = 1;
  impossible.true_reference_runtime = 60.0;
  JobRequirements terabyte;
  terabyte.min_memory_gb = 1024.0;  // 1 TB desktop, sure
  impossible.requirements = &terabyte;
  pool.submit(impossible);
  GridJob normal;
  normal.id = 2;
  normal.true_reference_runtime = 60.0;
  pool.submit(normal);
  sim.run(3600.0);
  EXPECT_EQ(completed, 1);  // the normal job ran past the stuck one
  EXPECT_EQ(normal.state, JobState::kCompleted);
  EXPECT_EQ(impossible.state, JobState::kQueued);
  // Cancelling the stuck job drains the queue.
  pool.cancel(1);
  EXPECT_EQ(impossible.state, JobState::kCancelled);
}

TEST(CondorMatchmaking, MachineAdAdvertisesPlatform) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 1;
  config.platform = PlatformSpec{OsType::kWindows, Arch::kX86};
  CondorPool pool(sim, "condor", config);
  const ClassAd ad = pool.machine_ad(0);
  EXPECT_EQ(std::get<std::string>(ad.at("OpSys")), "WINDOWS");
  EXPECT_EQ(std::get<std::string>(ad.at("Arch")), "INTEL");
  EXPECT_GT(std::get<double>(ad.at("KFlops")), 0.0);
}

}  // namespace
}  // namespace lattice::grid
