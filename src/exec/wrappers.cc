#include "exec/wrappers.h"

#include <iterator>

namespace stubby {

// One stage instance inside a running pipeline. Nodes form a chain; each
// node emits into the next via the Out() emitter.
struct PipelineRunner::Node : public Emitter {
  Stage::Kind kind;
  std::shared_ptr<MapFn> map_fn;
  std::shared_ptr<ReduceFn> reduce_fn;
  std::vector<size_t> group_indices;
  std::vector<size_t> key_indices;  // same as group_indices (projection)
  std::vector<Row> group_buffer;
  bool has_group = false;

  std::string tee_dataset;
  TeeSink* tee = nullptr;

  Emitter* next = nullptr;  // next node or final output
  double cpu_weight = 1.0;
  double* cpu_units = nullptr;
  StageCounts* stage_counts = nullptr;  // set only when the caller observes

  void Forward(Row row) {
    if (tee != nullptr && !tee_dataset.empty()) {
      tee->TeeEmit(tee_dataset, row);
    }
    if (stage_counts != nullptr) {
      stage_counts->records_out++;
      stage_counts->bytes_out += row.SerializedSize();
    }
    next->Emit(std::move(row));
  }

  // Emitter that routes a UDF's output through Forward().
  struct ForwardEmitter : public Emitter {
    Node* node;
    explicit ForwardEmitter(Node* n) : node(n) {}
    void Emit(Row row) override { node->Forward(std::move(row)); }
  };

  void CountIn(const Row& row) {
    *cpu_units += cpu_weight;
    if (stage_counts != nullptr) {
      stage_counts->records_in++;
      stage_counts->bytes_in += row.SerializedSize();
    }
  }

  // A kMap stage only reads its input row.
  void MapRow(const Row& row) {
    CountIn(row);
    ForwardEmitter fwd(this);
    map_fn->Map(row, &fwd);
  }

  void Emit(Row row) override {
    if (kind == Stage::Kind::kMap) {
      MapRow(row);
      return;
    }
    CountIn(row);
    // Streaming group-by: flush when the grouping key changes.
    if (has_group && !EqualOnFields(group_buffer.front(), row, group_indices)) {
      FlushGroup();
    }
    group_buffer.push_back(std::move(row));
    has_group = true;
  }

  void FlushGroup() {
    if (!has_group) return;
    if (stage_counts != nullptr) stage_counts->groups++;
    ForwardEmitter fwd(this);
    Row key = group_buffer.front().Project(key_indices);
    reduce_fn->Reduce(key, group_buffer, &fwd);
    group_buffer.clear();
    has_group = false;
  }

  void FinishNode() {
    ForwardEmitter fwd(this);
    if (kind == Stage::Kind::kReduce) {
      FlushGroup();
      reduce_fn->Finish(&fwd);
    } else {
      map_fn->Finish(&fwd);
    }
  }
};

Result<std::unique_ptr<PipelineRunner>> PipelineRunner::Make(
    const std::vector<Stage>& stages, const Schema& input_schema,
    Emitter* out, TeeSink* tee, std::vector<StageCounts>* stage_counts) {
  std::unique_ptr<PipelineRunner> runner(new PipelineRunner());
  runner->final_out_ = out;
  if (stage_counts != nullptr) stage_counts->assign(stages.size(), {});

  Schema cur = input_schema;
  for (const Stage& s : stages) {
    auto node = std::make_unique<Node>();
    node->kind = s.kind;
    node->tee_dataset = s.tee_dataset;
    node->tee = tee;
    node->cpu_units = &runner->cpu_units_;
    if (stage_counts != nullptr) {
      node->stage_counts = &(*stage_counts)[runner->nodes_.size()];
    }
    if (s.kind == Stage::Kind::kMap) {
      node->map_fn = s.map_fn->Clone();
      node->map_fn->Setup();
      node->cpu_weight = node->map_fn->cpu_cost_per_record();
      cur = node->map_fn->output_schema();
    } else {
      node->reduce_fn = s.reduce_fn->Clone();
      node->reduce_fn->Setup();
      node->cpu_weight = node->reduce_fn->cpu_cost_per_record();
      STUBBY_ASSIGN_OR_RETURN(node->group_indices,
                              cur.IndicesOf(s.group_fields));
      node->key_indices = node->group_indices;
      cur = node->reduce_fn->output_schema();
    }
    runner->nodes_.push_back(std::move(node));
  }

  // Wire the chain.
  for (size_t i = 0; i < runner->nodes_.size(); ++i) {
    Emitter* next = (i + 1 < runner->nodes_.size())
                        ? static_cast<Emitter*>(runner->nodes_[i + 1].get())
                        : out;
    runner->nodes_[i]->next = next;
  }
  return runner;
}

PipelineRunner::~PipelineRunner() = default;

void PipelineRunner::Emit(Row row) {
  if (nodes_.empty()) {
    final_out_->Emit(std::move(row));
    return;
  }
  nodes_.front()->Emit(std::move(row));
}

void PipelineRunner::EmitBorrowed(const Row& row) {
  if (!nodes_.empty() && nodes_.front()->kind == Stage::Kind::kMap) {
    nodes_.front()->MapRow(row);
    return;
  }
  Emit(row);
}

void PipelineRunner::Finish() {
  for (auto& node : nodes_) node->FinishNode();
}

std::vector<Row> RunCombiner(const CombineFn& fn, std::vector<Row> sorted_rows,
                             const std::vector<size_t>& group_indices,
                             double* cpu_units) {
  VectorEmitter out;
  std::shared_ptr<CombineFn> instance = fn.Clone();
  std::vector<Row> group;
  size_t i = 0;
  while (i < sorted_rows.size()) {
    size_t j = i + 1;
    while (j < sorted_rows.size() &&
           EqualOnFields(sorted_rows[i], sorted_rows[j], group_indices)) {
      ++j;
    }
    Row key = sorted_rows[i].Project(group_indices);
    group.assign(std::make_move_iterator(sorted_rows.begin() + i),
                 std::make_move_iterator(sorted_rows.begin() + j));
    instance->Combine(key, group, &out);
    *cpu_units +=
        static_cast<double>(j - i) * instance->cpu_cost_per_record();
    i = j;
  }
  return std::move(out.rows());
}

}  // namespace stubby
