// Root finding in a concurrent union-find forest stored as a plain
// parent array (parent[x] == x marks a root).
//
// The forest's pointers only ever move toward smaller ids: a root is
// hooked only under a smaller root, and path halving replaces a parent
// by a grandparent. Every write therefore leaves each vertex pointing at
// one of its ancestors, so concurrent finds, hooks and halving stay
// correct under relaxed ordering, and a finished forest's roots are the
// minimum ids of their trees.
#pragma once

#include "parallel/atomics.hpp"

namespace gunrock::par {

/// Returns the root of x's tree, halving the path on the way (ECL-CC,
/// Jaiganesh & Burtscher, HPDC 2018): each visited vertex is re-pointed
/// at its grandparent. A lost halving CAS is harmless — another writer
/// has already moved that pointer closer to the root.
template <typename T>
inline T FindRoot(T* parent, T x) {
  while (true) {
    const T p = AtomicLoad(&parent[x]);
    if (p == x) return x;
    const T gp = AtomicLoad(&parent[p]);
    if (p == gp) return p;
    AtomicCas(&parent[x], p, gp);
    x = gp;
  }
}

}  // namespace gunrock::par
