// Tests for common/json and workflow/serialize: the annotated-workflow
// export/import feature (Section 6's Pig integration analogue).

#include <gtest/gtest.h>

#include "common/json.h"
#include "optimizer/stubby.h"
#include "test_workflows.h"
#include "workflow/serialize.h"

namespace stubby {
namespace {

using ::stubby::testing::ExpectEquivalent;
using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSiblings;
using ::stubby::testing::ProfileInPlace;

TEST(JsonTest, BuildAndDump) {
  Json obj = Json::Object();
  obj["name"] = "x";
  obj["n"] = 42;
  obj["flag"] = true;
  Json arr = Json::Array();
  arr.Append(1.5);
  arr.Append("two");
  obj["items"] = std::move(arr);
  std::string compact = obj.Dump(-1);
  EXPECT_EQ(compact,
            R"({"name":"x","n":42,"flag":true,"items":[1.5,"two"]})");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string doc =
      R"({"a": [1, 2.5, "s\n"], "b": {"c": null, "d": false}, "e": -3})";
  auto parsed = Json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("a")->items()[2].AsString(), "s\n");
  EXPECT_TRUE(parsed->Find("b")->Find("c")->is_null());
  EXPECT_EQ(parsed->GetNumber("e"), -3);
  // Dump-parse-dump stability.
  auto reparsed = Json::Parse(parsed->Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(-1), parsed->Dump(-1));
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
}

TEST(JsonTest, FieldOrderIsPreserved) {
  Json obj = Json::Object();
  obj["z"] = 1;
  obj["a"] = 2;
  EXPECT_EQ(obj.fields()[0].first, "z");
  EXPECT_EQ(obj.fields()[1].first, "a");
}

TEST(SerializeTest, RoundTripPreservesSignatureAndSemantics) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);

  std::string text = ExportPlan(f->plan());
  EXPECT_NE(text.find("stubby-plan"), std::string::npos);

  PlanFunctionResolver resolver(f->plan());
  auto imported = ImportPlan(text, resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(PlanSignature(*imported), PlanSignature(f->plan()));
  EXPECT_EQ(imported->num_jobs(), f->plan().num_jobs());
  // The imported plan runs and produces the same results.
  ExpectEquivalent(*f, f->plan(), *imported);
}

TEST(SerializeTest, RoundTripPreservesAnnotationsAndConfigs) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jp"))->config.num_reduce_tasks = 33;
  (*plan.GetMutableJob("Jp"))->config.compress_map_output = true;
  (*plan.GetMutableJob("Jp"))->conditions.num_reduce_fixed = 33;

  PlanFunctionResolver resolver(plan);
  auto imported = ImportPlan(ExportPlan(plan), resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
  const JobVertex& jp = *(*imported->GetJob("Jp"));
  EXPECT_EQ(jp.config.num_reduce_tasks, 33);
  EXPECT_TRUE(jp.config.compress_map_output);
  EXPECT_EQ(jp.conditions.num_reduce_fixed, 33);
  const auto& profile = jp.branches[0].annotations.profile;
  ASSERT_TRUE(profile.has_value());
  EXPECT_GT(profile->k2_distinct_groups, 0);
  EXPECT_FALSE(profile->key_histograms.empty());
  const auto& schema = jp.branches[0].annotations.schema;
  ASSERT_TRUE(schema.has_value());
  EXPECT_EQ(*schema->k2, (FieldSet{"K", "Z"}));
}

TEST(SerializeTest, ImportIgnoresRetiredCombineSelectivityKey) {
  // Plan JSON written before `combine_selectivity` left the profile
  // annotation still carries the key; it must import, with the key ignored.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  const std::string text = ExportPlan(f->plan());
  const std::string key = "\"combine_cpu_per_record\":";
  std::string old_text;
  size_t inserted = 0;
  for (size_t pos = 0;;) {
    size_t at = text.find(key, pos);
    old_text += text.substr(pos, at == std::string::npos ? at : at - pos);
    if (at == std::string::npos) break;
    old_text += "\"combine_selectivity\": 0.37, " + key;
    pos = at + key.size();
    ++inserted;
  }
  ASSERT_GT(inserted, 0u);

  PlanFunctionResolver resolver(f->plan());
  auto imported = ImportPlan(old_text, resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(ExportPlan(*imported), text);
  EXPECT_EQ(text.find("combine_selectivity"), std::string::npos);
}

TEST(SerializeTest, ImportRejectsBadPinnedReduceTaskCount) {
  // Export a plan whose reduce job pins 4 tasks, then rewrite the pinned
  // count: only an integer of at least 1 within int's range imports.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jp"))->conditions.num_reduce_fixed = 4;
  const std::string text = ExportPlan(plan);
  const std::string pinned = "\"num_reduce_fixed\": 4";
  const size_t at = text.find(pinned);
  ASSERT_NE(at, std::string::npos) << text;
  auto with_count = [&](const std::string& count) {
    std::string edited = text;
    edited.replace(at, pinned.size(), "\"num_reduce_fixed\": " + count);
    return edited;
  };
  PlanFunctionResolver resolver(plan);
  auto kept = ImportPlan(with_count("4"), resolver);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ((*kept->GetJob("Jp"))->conditions.num_reduce_fixed, 4);
  for (const char* bad : {"0", "-1", "2.5", "1e300", "\"4\""}) {
    EXPECT_FALSE(ImportPlan(with_count(bad), resolver).ok())
        << "num_reduce_fixed=" << bad;
  }
}

TEST(SerializeTest, MaterializedFromRoundTrips) {
  // Reuse-rewritten plans mark stored-dataset scans via materialized_from;
  // exported artifacts must keep the marker so re-imported plans still
  // render and cost as reused scans.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto in = plan.GetMutableDataset("IN");
  ASSERT_TRUE(in.ok());
  (*in)->materialized_from = "rs/7";

  PlanFunctionResolver resolver(plan);
  auto imported = ImportPlan(ExportPlan(plan), resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ((*imported->GetDataset("IN"))->materialized_from, "rs/7");
  // Unmarked datasets stay unmarked.
  EXPECT_TRUE((*imported->GetDataset("OUT"))->materialized_from.empty());
}

TEST(SerializeTest, OptimizedPlansRoundTripToo) {
  // Transformed plans (merged stages, tees, conditions) must survive the
  // round trip — the scenario where an integration persists the optimized
  // plan for repeated execution.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  auto report = StubbyOptimizer().Optimize(f->plan());
  ASSERT_TRUE(report.ok());

  PlanFunctionResolver resolver(report->plan);
  auto imported = ImportPlan(ExportPlan(report->plan), resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(PlanSignature(*imported), PlanSignature(report->plan));
  ExpectEquivalent(*f, report->plan, *imported);
}

TEST(SerializeTest, MissingFunctionFailsCleanly) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  std::string text = ExportPlan(f->plan());
  auto siblings = MakeSiblings();  // resolver with the wrong functions
  ASSERT_TRUE(siblings.ok());
  PlanFunctionResolver wrong(siblings->plan());
  auto imported = ImportPlan(text, wrong);
  EXPECT_FALSE(imported.ok());
  EXPECT_TRUE(imported.status().IsNotFound());
}

TEST(SerializeTest, RejectsForeignDocuments) {
  PlanFunctionResolver resolver{Plan{}};
  EXPECT_FALSE(ImportPlan("{\"format\": \"other\"}", resolver).ok());
  EXPECT_FALSE(ImportPlan("not json", resolver).ok());
}

}  // namespace
}  // namespace stubby
