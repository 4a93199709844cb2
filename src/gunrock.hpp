// Umbrella header: the full public API of the Gunrock-CPU library.
//
// Layering (see DESIGN.md):
//   gunrock::par    — parallel runtime & primitives (thread pool, scan,
//                     sort, compact, atomics, bitmap)
//   gunrock::graph  — storage (CSR/COO), Matrix Market I/O, generators,
//                     statistics
//   gunrock::core   — the data-centric abstraction: frontier + advance /
//                     filter / compute operators, priority queue,
//                     direction optimizer, SIMT lane-efficiency model
//   gunrock::       — graph primitives built on the core: Bfs, Sssp, Bc,
//                     Cc, Pagerank, and extended node-ranking primitives
//   gunrock::engine — the serving layer: QueryEngine multiplexes many
//                     in-flight queries onto one shared pool with leased
//                     workspaces, admission control and cancellation
//   gunrock::serial — sequential reference implementations
#pragma once

#include "baselines/gas.hpp"
#include "baselines/pregel.hpp"
#include "baselines/serial.hpp"
#include "core/advance.hpp"
#include "core/cancel.hpp"
#include "core/compute.hpp"
#include "core/direction.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "core/policy.hpp"
#include "core/priority_queue.hpp"
#include "core/simt_model.hpp"
#include "core/spmv.hpp"
#include "core/stats.hpp"
#include "core/workspace.hpp"
#include "engine/query.hpp"
#include "engine/query_engine.hpp"
#include "engine/workspace_pool.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/market.hpp"
#include "graph/stats.hpp"
#include "hardwired/hardwired.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/thread_pool.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/bfs_batch.hpp"
#include "primitives/cc.hpp"
#include "primitives/ppr_batch.hpp"
#include "primitives/mst.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/ranking.hpp"
#include "primitives/sets.hpp"
#include "primitives/sssp.hpp"
#include "primitives/sssp_batch.hpp"
#include "primitives/triangles.hpp"
#include "primitives/label_propagation.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"
