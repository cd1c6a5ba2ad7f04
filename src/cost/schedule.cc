#include "cost/schedule.h"

#include <algorithm>
#include <queue>
#include <string>

namespace stubby {

namespace {

// Tasks are scheduled in wave-sized batches (all tasks of a batch share the
// same duration) which keeps the event count proportional to waves x jobs
// rather than tasks, making the simulation cheap enough to sit inside the
// optimizer's inner costing loop. The slowest task's extra time (skew) is
// charged to the final batch of each phase.
struct JobState {
  const JobTaskTimes* times = nullptr;
  size_t rank = 0;  ///< FIFO tie-break among equally ready jobs
  int deps_remaining = 0;
  double ready_time = -1.0;  ///< maps may start (deps done + overhead)
  int maps_pending = 0;
  int maps_running = 0;
  double reduce_ready_time = -1.0;  ///< reduces may start (maps done)
  int reduces_pending = 0;
  int reduces_running = 0;
  double finish_time = -1.0;
  bool done = false;
};

struct Event {
  double time;
  int seq;  // tie-break for determinism
  enum Kind { kMapBatchDone, kReduceBatchDone } kind;
  size_t job_index;
  int count;  // tasks in the batch

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace

ScheduleGraph MakeScheduleGraph(const std::vector<std::vector<size_t>>& deps,
                                std::vector<size_t> rank) {
  ScheduleGraph g;
  g.dependents.resize(deps.size());
  g.num_deps.assign(deps.size(), 0);
  for (size_t i = 0; i < deps.size(); ++i) {
    for (size_t d : deps[i]) {
      g.dependents[d].push_back(i);
      g.num_deps[i]++;
    }
  }
  g.rank = std::move(rank);
  return g;
}

Result<JobSchedule> SimulateSchedule(const ScheduleGraph& graph,
                                     const std::vector<JobTaskTimes>& times,
                                     const ClusterSpec& cluster) {
  std::vector<JobState> state(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    state[i].times = &times[i];
    state[i].rank = graph.rank[i];
    // Jobs with zero tasks complete instantly at their ready time; model
    // them as a zero-length map batch.
    state[i].maps_pending = times[i].map_tasks <= 0 ? 1 : times[i].map_tasks;
    state[i].reduces_pending = std::max(0, times[i].reduce_tasks);
    state[i].deps_remaining = graph.num_deps[i];
  }
  const std::vector<std::vector<size_t>>& dependents = graph.dependents;

  int free_map = cluster.total_map_slots();
  int free_reduce = cluster.total_reduce_slots();

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  int seq = 0;
  double now = 0.0;

  // Jobs with map (reduce) tasks pending whose maps (reduces) have a ready
  // time, ordered by (ready time, rank, index); the next job to dispatch
  // sits at the back. The earliest-ready job is the one a scan over all
  // jobs would pick, and when it is not ready by `now` no job is.
  std::vector<size_t> map_ready, reduce_ready;
  map_ready.reserve(state.size());
  reduce_ready.reserve(state.size());
  auto enqueue = [&](std::vector<size_t>* ready, double JobState::*time,
                     size_t i) {
    auto after = [&](size_t a, size_t b) {
      if (state[a].*time != state[b].*time) {
        return state[a].*time > state[b].*time;
      }
      if (state[a].rank != state[b].rank) return state[a].rank > state[b].rank;
      return a > b;
    };
    ready->insert(std::upper_bound(ready->begin(), ready->end(), i, after), i);
  };
  auto set_ready = [&](size_t i, double t) {
    state[i].ready_time = t;
    // A negative (or NaN) ready time never dispatches.
    if (t >= 0) enqueue(&map_ready, &JobState::ready_time, i);
  };
  auto set_reduce_ready = [&](size_t i) {
    state[i].reduce_ready_time = now;
    enqueue(&reduce_ready, &JobState::reduce_ready_time, i);
  };

  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].deps_remaining == 0) {
      set_ready(i, state[i].times->job_overhead_sec);
    }
  }

  auto finish_job = [&](size_t i) {
    state[i].done = true;
    state[i].finish_time = now;
    for (size_t dep : dependents[i]) {
      if (--state[dep].deps_remaining == 0) {
        set_ready(dep, now + state[dep].times->job_overhead_sec);
      }
    }
  };

  // Schedules as many ready tasks as slots allow; FIFO by (ready_time,
  // rank).
  auto dispatch = [&]() {
    while (free_map > 0 && !map_ready.empty() &&
           state[map_ready.back()].ready_time <= now) {
      size_t best = map_ready.back();
      JobState& js = state[best];
      int n = std::min(free_map, js.maps_pending);
      js.maps_pending -= n;
      js.maps_running += n;
      free_map -= n;
      if (js.maps_pending == 0) map_ready.pop_back();
      double dur = js.maps_pending == 0 ? js.times->map_max_sec
                                        : js.times->map_avg_sec;
      pq.push(Event{now + std::max(0.0, dur), seq++, Event::kMapBatchDone,
                    best, n});
    }
    while (free_reduce > 0 && !reduce_ready.empty() &&
           state[reduce_ready.back()].reduce_ready_time <= now) {
      size_t best = reduce_ready.back();
      JobState& js = state[best];
      int n = std::min(free_reduce, js.reduces_pending);
      js.reduces_pending -= n;
      js.reduces_running += n;
      free_reduce -= n;
      if (js.reduces_pending == 0) reduce_ready.pop_back();
      double dur = js.reduces_pending == 0 ? js.times->reduce_max_sec
                                           : js.times->reduce_avg_sec;
      pq.push(Event{now + std::max(0.0, dur), seq++, Event::kReduceBatchDone,
                    best, n});
    }
  };

  // Kick-off events at initial ready times so that jobs whose overhead
  // elapses while others are running get dispatched promptly.
  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].ready_time >= 0) {
      pq.push(Event{state[i].ready_time, seq++, Event::kMapBatchDone, i, 0});
    }
  }

  dispatch();
  size_t guard = 0;
  const size_t kGuardLimit = 10'000'000;
  while (true) {
    if (pq.empty()) {
      // Nothing running: advance to the earliest ready time still waiting.
      double next_ready = -1.0;
      if (!map_ready.empty()) next_ready = state[map_ready.back()].ready_time;
      if (!reduce_ready.empty()) {
        double t = state[reduce_ready.back()].reduce_ready_time;
        if (next_ready < 0 || t < next_ready) next_ready = t;
      }
      if (next_ready < 0) break;  // all done
      now = next_ready;
      dispatch();
      if (pq.empty()) break;  // defensive: nothing schedulable
      continue;
    }
    if (++guard > kGuardLimit) {
      return Status::Internal("cluster simulation exceeded event limit");
    }
    Event ev = pq.top();
    pq.pop();
    now = ev.time;
    JobState& js = state[ev.job_index];
    if (ev.kind == Event::kMapBatchDone) {
      js.maps_running -= ev.count;
      free_map += ev.count;
      if (js.maps_pending == 0 && js.maps_running == 0) {
        if (js.times->reduce_tasks > 0) {
          set_reduce_ready(ev.job_index);
        } else if (!js.done) {
          finish_job(ev.job_index);
        }
      }
    } else {
      js.reduces_running -= ev.count;
      free_reduce += ev.count;
      if (js.reduces_pending == 0 && js.reduces_running == 0 && !js.done) {
        finish_job(ev.job_index);
      }
    }
    dispatch();
  }

  JobSchedule result;
  result.finish_sec.reserve(state.size());
  for (size_t i = 0; i < state.size(); ++i) {
    if (!state[i].done) {
      return Status::Internal("job #" + std::to_string(i) +
                              " never completed in simulation (cyclic "
                              "dependencies?)");
    }
    result.finish_sec.push_back(state[i].finish_time);
    result.makespan_sec = std::max(result.makespan_sec, state[i].finish_time);
  }
  return result;
}

Result<ScheduleResult> SimulateCluster(const std::vector<ScheduledJob>& jobs,
                                       const ClusterSpec& cluster) {
  // Job indices in id order: the tie-break ranks, and the lookup for deps.
  std::vector<size_t> by_id(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [&](size_t a, size_t b) { return jobs[a].id < jobs[b].id; });
  std::vector<size_t> rank(jobs.size());
  for (size_t r = 0; r < by_id.size(); ++r) {
    if (r > 0 && jobs[by_id[r]].id == jobs[by_id[r - 1]].id) {
      return Status::InvalidArgument("duplicate job id '" +
                                     jobs[by_id[r]].id + "'");
    }
    rank[by_id[r]] = r;
  }
  std::vector<std::vector<size_t>> deps(jobs.size());
  std::vector<JobTaskTimes> times;
  times.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (const auto& d : jobs[i].deps) {
      auto it = std::lower_bound(
          by_id.begin(), by_id.end(), d,
          [&](size_t j, const std::string& id) { return jobs[j].id < id; });
      if (it == by_id.end() || jobs[*it].id != d) {
        return Status::InvalidArgument("job '" + jobs[i].id +
                                       "' depends on unknown job '" + d + "'");
      }
      deps[i].push_back(*it);
    }
    times.push_back(jobs[i].times);
  }
  STUBBY_ASSIGN_OR_RETURN(
      JobSchedule sched,
      SimulateSchedule(MakeScheduleGraph(deps, std::move(rank)), times,
                       cluster));
  ScheduleResult result;
  result.makespan_sec = sched.makespan_sec;
  for (size_t i = 0; i < jobs.size(); ++i) {
    result.job_finish_sec[jobs[i].id] = sched.finish_sec[i];
  }
  return result;
}

}  // namespace stubby
