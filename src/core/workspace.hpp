// core::Workspace — the enactor-owned scratch arena threaded through the
// advance/filter operators (see parallel/workspace.hpp for the mechanism
// and the slot registry). The arena lives in gunrock::par so the operator
// substrate's scan/compact/reduce helpers can share it; primitives and
// user code should reach it through this alias and start private slot ids
// at par::ws::kUserFirst.
#pragma once

#include "parallel/workspace.hpp"

namespace gunrock::core {

using Workspace = par::Workspace;

}  // namespace gunrock::core
