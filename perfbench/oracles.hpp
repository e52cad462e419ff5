/**
 * @file
 * Reference answers computed without core::SetEngine, the SCU or the
 * sets:: layer: plain loops over the graph's adjacency arrays. The
 * benchmark checks every mining result against them.
 */

#ifndef SISA_PERFBENCH_ORACLES_HPP
#define SISA_PERFBENCH_ORACLES_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sisa::perfbench {

/**
 * Triangles of the undirected graph behind @p oriented, an acyclic
 * orientation of it: sum over arcs (v, w) of |N+(v) cap N+(w)| by a
 * two-pointer merge.
 */
inline std::uint64_t
orientedTriangleCount(const graph::Graph &oriented)
{
    std::uint64_t total = 0;
    for (graph::VertexId v = 0; v < oriented.numVertices(); ++v) {
        const auto nv = oriented.neighbors(v);
        for (graph::VertexId w : nv) {
            const auto nw = oriented.neighbors(w);
            auto i = nv.begin();
            auto j = nw.begin();
            while (i != nv.end() && j != nw.end()) {
                if (*i < *j) {
                    ++i;
                } else if (*j < *i) {
                    ++j;
                } else {
                    ++total;
                    ++i;
                    ++j;
                }
            }
        }
    }
    return total;
}

/**
 * Number of maximal cliques of an undirected graph (isolated vertices
 * count as cliques of size 1): Bron-Kerbosch with Tomita pivoting on
 * word bitsets, one subproblem per vertex v with P = later neighbours
 * and X = earlier neighbours in vertex-id order.
 */
class MaximalCliqueOracle
{
  public:
    explicit MaximalCliqueOracle(const graph::Graph &g)
        : n_(g.numVertices()), words_((n_ + 63) / 64),
          adj_(static_cast<std::size_t>(n_) * words_, 0)
    {
        for (graph::VertexId v = 0; v < n_; ++v) {
            for (graph::VertexId w : g.neighbors(v))
                row(v)[w / 64] |= std::uint64_t{1} << (w % 64);
        }
    }

    std::uint64_t
    count()
    {
        std::uint64_t cliques = 0;
        for (graph::VertexId v = 0; v < n_; ++v) {
            Bits p(words_, 0), x(words_, 0);
            for (std::size_t k = 0; k < words_; ++k) {
                // Bits above v go to P, bits below v to X.
                const std::uint64_t base = k * 64;
                std::uint64_t later = 0;
                if (base + 63 <= v)
                    later = 0;
                else if (base > v)
                    later = ~std::uint64_t{0};
                else
                    later = ~std::uint64_t{0} << (v - base) << 1;
                p[k] = row(v)[k] & later;
                x[k] = row(v)[k] & ~later;
            }
            recurse(p, x, cliques);
        }
        return cliques;
    }

  private:
    using Bits = std::vector<std::uint64_t>;

    std::uint64_t *row(graph::VertexId v)
    {
        return adj_.data() + static_cast<std::size_t>(v) * words_;
    }

    void
    recurse(Bits &p, Bits &x, std::uint64_t &cliques)
    {
        bool p_empty = true, x_empty = true;
        for (std::size_t k = 0; k < words_; ++k) {
            p_empty = p_empty && p[k] == 0;
            x_empty = x_empty && x[k] == 0;
        }
        if (p_empty) {
            if (x_empty)
                ++cliques;
            return;
        }
        // Pivot u in P cup X maximising |P cap N(u)|.
        graph::VertexId pivot = 0;
        int best = -1;
        for (std::size_t k = 0; k < words_; ++k) {
            for (std::uint64_t bits = p[k] | x[k]; bits; bits &= bits - 1) {
                const auto u = static_cast<graph::VertexId>(
                    k * 64 + static_cast<unsigned>(std::countr_zero(bits)));
                int gain = 0;
                for (std::size_t j = 0; j < words_; ++j)
                    gain += std::popcount(p[j] & row(u)[j]);
                if (gain > best) {
                    best = gain;
                    pivot = u;
                }
            }
        }
        Bits cands(words_);
        for (std::size_t k = 0; k < words_; ++k)
            cands[k] = p[k] & ~row(pivot)[k];
        Bits p_next(words_), x_next(words_);
        for (std::size_t k = 0; k < words_; ++k) {
            for (std::uint64_t bits = cands[k]; bits; bits &= bits - 1) {
                const auto v = static_cast<graph::VertexId>(
                    k * 64 + static_cast<unsigned>(std::countr_zero(bits)));
                for (std::size_t j = 0; j < words_; ++j) {
                    p_next[j] = p[j] & row(v)[j];
                    x_next[j] = x[j] & row(v)[j];
                }
                recurse(p_next, x_next, cliques);
                const std::uint64_t bit = std::uint64_t{1} << (v % 64);
                p[v / 64] &= ~bit;
                x[v / 64] |= bit;
            }
        }
    }

    graph::VertexId n_;
    std::size_t words_;
    std::vector<std::uint64_t> adj_;
};

} // namespace sisa::perfbench

#endif // SISA_PERFBENCH_ORACLES_HPP
