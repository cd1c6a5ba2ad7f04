// Tests for common/json and workflow/serialize: the annotated-workflow
// export/import feature (Section 6's Pig integration analogue).

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "common/json.h"
#include "optimizer/stubby.h"
#include "test_workflows.h"
#include "workflow/serialize.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

using ::stubby::testing::ExpectEquivalent;
using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSelectiveJoin;
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

/// `doc` with the first `key` (depth-first, in document order) that lies
/// inside a `within` object passed through `edit`: the key keeps what
/// `edit` returns, or is dropped when it returns nullopt. `*hit` says
/// whether one was found.
Json EditFirst(const Json& doc, const std::string& within,
               const std::string& key,
               const std::function<std::optional<Json>(const Json&)>& edit,
               bool inside, bool* hit) {
  if (doc.is_array()) {
    Json out = Json::Array();
    for (const Json& item : doc.items()) {
      out.Append(EditFirst(item, within, key, edit, inside, hit));
    }
    return out;
  }
  if (!doc.is_object()) return doc;
  Json out = Json::Object();
  for (const auto& [k, v] : doc.fields()) {
    if (!*hit && inside && k == key) {
      *hit = true;
      if (std::optional<Json> edited = edit(v)) out[k] = std::move(*edited);
    } else {
      out[k] = EditFirst(v, within, key, edit, inside || k == within, hit);
    }
  }
  return out;
}

/// `doc` with the first `key` inside a `within` object replaced by
/// `value`; when the old value is an array, only its first element is
/// replaced.
Json ReplaceFirst(const Json& doc, const std::string& within,
                  const std::string& key, const Json& value, bool inside,
                  bool* hit) {
  return EditFirst(
      doc, within, key,
      [&](const Json& old) -> std::optional<Json> {
        if (!old.is_array() || old.size() == 0) return value;
        Json items = Json::Array();
        items.Append(value);
        for (size_t i = 1; i < old.size(); ++i) items.Append(old.items()[i]);
        return items;
      },
      inside, hit);
}

TEST(SerializeTest, ImportRejectsNonIntegralFields) {
  // A plan that carries every integer field the importer reads: a profiled
  // selective join optimized with Bloom transfer on (cluster, configs,
  // dataset annotations, histograms, the join annotation and the Bloom
  // spec), with a prune list added to its first input.
  auto f = MakeSelectiveJoin();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);
  StubbyOptions options;
  options.bloom_transfer = true;
  auto report = StubbyOptimizer(options).Optimize(f->plan());
  ASSERT_TRUE(report.ok()) << report.status();
  std::string text = ExportPlan(report->plan);
  ASSERT_NE(text.find("\"bloom\""), std::string::npos) << text;
  const std::string aligned = "\"aligned\": false";
  const size_t at = text.find(aligned);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + aligned.size(), ", \"prune\": [0]");
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  PlanFunctionResolver resolver(report->plan);
  ASSERT_TRUE(ImportPlan(text, resolver).ok());

  struct Field {
    const char* within;
    const char* key;
    bool is_unsigned;
  };
  const Field fields[] = {
      {"cluster", "num_nodes", false},
      {"cluster", "map_slots_per_node", false},
      {"cluster", "reduce_slots_per_node", false},
      {"config", "num_reduce_tasks", false},
      {"config", "io_sort_factor", false},
      {"annotation", "num_records", true},
      {"annotation", "bytes", true},
      {"annotation", "num_partitions", false},
      {"histograms", "distinct", true},
      {"inputs", "prune", false},
      {"join", "filterable", true},
      {"bloom", "build_input", true},
      {"bloom", "probe_inputs", true},
      {"bloom", "bits_log2", false},
      {"bloom", "num_hashes", false},
  };
  for (const Field& field : fields) {
    std::vector<Json> bad = {Json(2.5), Json(1e300), Json("4")};
    if (field.is_unsigned) bad.push_back(Json(-1));
    for (const Json& value : bad) {
      bool hit = false;
      Json edited =
          ReplaceFirst(*doc, field.within, field.key, value, false, &hit);
      ASSERT_TRUE(hit) << field.within << "." << field.key;
      EXPECT_FALSE(ImportPlan(edited.Dump(2), resolver).ok())
          << field.within << "." << field.key << " = " << value.Dump(-1);
    }
  }

  // An exported Table 1 plan, profiled and optimized, still round-trips.
  WorkloadOptions wopts;
  wopts.sample_rows = 2000;
  auto w = MakeWorkload("BR", wopts);
  ASSERT_TRUE(w.ok()) << w.status();
  Profiler profiler(w->plan.cluster());
  Dfs dfs = w->dfs;
  ASSERT_TRUE(profiler.ProfilePlan(&w->plan, &dfs).ok());
  auto optimized = StubbyOptimizer().Optimize(w->plan);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  for (const Plan* plan : {&w->plan, &optimized->plan}) {
    const std::string exported = ExportPlan(*plan);
    PlanFunctionResolver table1(*plan);
    auto imported = ImportPlan(exported, table1);
    ASSERT_TRUE(imported.ok()) << imported.status();
    EXPECT_EQ(ExportPlan(*imported), exported);
  }
}

TEST(SerializeTest, ImportRejectsCorruptPartitionSpecs) {
  // A partition spec's type is "hash" or "range", and its field lists (and
  // a layout's order) are arrays of strings. Anything else is a corrupt
  // plan file, not another partition function, so it must not import. An
  // absent list still reads as empty.
  WorkloadOptions wopts;
  wopts.sample_rows = 2000;
  auto w = MakeWorkload("BR", wopts);
  ASSERT_TRUE(w.ok()) << w.status();
  Profiler profiler(w->plan.cluster());
  Dfs dfs = w->dfs;
  ASSERT_TRUE(profiler.ProfilePlan(&w->plan, &dfs).ok());
  auto optimized = StubbyOptimizer().Optimize(w->plan);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  const std::string text = ExportPlan(optimized->plan);
  PlanFunctionResolver resolver(optimized->plan);
  auto kept = ImportPlan(text, resolver);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(ExportPlan(*kept), text);
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();

  struct Corruption {
    const char* within;
    const char* key;
    Json value;
    bool whole;  ///< replace the whole value, not an array's first entry
  };
  const Corruption corruptions[] = {
      {"partition", "type", Json("bogus"), true},
      {"partition", "type", Json(1), true},
      {"partition", "fields", Json(7), false},
      {"partition", "fields", Json("K"), true},
      {"partition", "sort", Json::Object(), true},
      {"partitioning", "type", Json("bogus"), true},
      {"partitioning", "sort", Json(7), false},
      {"layout", "order", Json(2.5), false},
      {"layout", "order", Json("K"), true},
  };
  for (const Corruption& c : corruptions) {
    bool hit = false;
    const Json edited =
        c.whole ? EditFirst(
                      *doc, c.within, c.key,
                      [&](const Json&) { return std::optional<Json>(c.value); },
                      false, &hit)
                : ReplaceFirst(*doc, c.within, c.key, c.value, false, &hit);
    ASSERT_TRUE(hit) << c.within << "." << c.key;
    auto imported = ImportPlan(edited.Dump(2), resolver);
    ASSERT_FALSE(imported.ok())
        << c.within << "." << c.key << " = " << c.value.Dump(-1);
    EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument)
        << c.within << "." << c.key << ": " << imported.status();
  }

  bool hit = false;
  const Json without = EditFirst(
      *doc, "layout", "order",
      [](const Json&) { return std::optional<Json>(); }, false, &hit);
  ASSERT_TRUE(hit);
  auto imported = ImportPlan(without.Dump(2), resolver);
  ASSERT_TRUE(imported.ok()) << imported.status();
}

TEST(SerializeTest, ImportRejectsMistypedSplitPointValues) {
  // A split point is a row of tagged values. Only the type a tag names
  // imports: "i" an integral number within int64, "d" a number, "s" a
  // string; and a row must be an array.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  PartitionSpec& spec = (*plan.GetMutableJob("Jc"))->branches[0].partition;
  spec.type = PartitionType::kRange;
  spec.split_points = {Row{int64_t{7}}};
  ASSERT_TRUE(plan.Validate().ok());
  const std::string text = ExportPlan(plan);
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  PlanFunctionResolver resolver(plan);
  auto kept = ImportPlan(text, resolver);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(ExportPlan(*kept), text);

  auto with_split = [&](Json row) {
    bool hit = false;
    Json edited = ReplaceFirst(*doc, "partition", "splits", row, false, &hit);
    EXPECT_TRUE(hit);
    return edited.Dump(2);
  };
  auto value = [](const char* tag, Json v) {
    Json encoded = Json::Array();
    encoded.Append(tag);
    encoded.Append(std::move(v));
    return encoded;
  };
  auto row_of = [](Json v) {
    Json row = Json::Array();
    row.Append(std::move(v));
    return row;
  };
  const std::vector<Json> bad = {
      row_of(value("i", 2.5)),    row_of(value("i", 1e300)),
      row_of(value("i", -1e19)),  row_of(value("i", "7")),
      row_of(value("d", "7")),    row_of(value("s", 7)),
      Json(7),                    Json::Object(),
  };
  for (const Json& row : bad) {
    auto imported = ImportPlan(with_split(row), resolver);
    ASSERT_FALSE(imported.ok()) << row.Dump(-1);
    EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument)
        << row.Dump(-1);
  }
  auto retyped = ImportPlan(with_split(row_of(value("d", 7.5))), resolver);
  ASSERT_TRUE(retyped.ok()) << retyped.status();
  EXPECT_EQ((*retyped->GetJob("Jc"))->branches[0].partition.split_points[0],
            Row{7.5});
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
