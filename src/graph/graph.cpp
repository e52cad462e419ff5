#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/logging.hpp"

namespace sisa::graph {

std::uint32_t
Graph::maxDegree() const
{
    std::uint32_t max_deg = 0;
    for (VertexId v = 0; v < numVertices_; ++v)
        max_deg = std::max(max_deg, degree(v));
    return max_deg;
}

bool
Graph::hasEdge(VertexId u, VertexId v) const
{
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::int64_t
Graph::edgeIndex(VertexId u, VertexId v) const
{
    const auto nbrs = neighbors(u);
    auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v)
        return -1;
    return static_cast<std::int64_t>(
        offsets_[u] + static_cast<std::size_t>(it - nbrs.begin()));
}

Label
Graph::edgeLabel(VertexId u, VertexId v) const
{
    const std::int64_t idx = edgeIndex(u, v);
    sisa_assert(idx >= 0, "edgeLabel on a non-edge (", u, ",", v, ")");
    return edgeLabels_[static_cast<std::size_t>(idx)];
}

void
Graph::setVertexLabels(std::vector<Label> labels)
{
    sisa_assert(labels.size() == numVertices_,
                "label vector size must equal the vertex count");
    vertexLabels_ = std::move(labels);
}

Graph
Graph::orientByRank(const std::vector<std::uint32_t> &rank) const
{
    sisa_assert(!directed_, "orientByRank expects an undirected graph");
    sisa_assert(rank.size() == numVertices_, "rank size mismatch");

    // Rows are sorted and duplicate-free, so filtering them in order
    // yields the oriented CSR directly.
    Graph oriented;
    oriented.numVertices_ = numVertices_;
    oriented.directed_ = true;
    oriented.offsets_.resize(static_cast<std::size_t>(numVertices_) + 1);
    oriented.adj_.reserve(numEdges_);
    for (VertexId u = 0; u < numVertices_; ++u) {
        for (VertexId v : neighbors(u)) {
            if (rank[u] < rank[v])
                oriented.adj_.push_back(v);
        }
        oriented.offsets_[u + 1] = oriented.adj_.size();
    }
    oriented.numEdges_ = oriented.adj_.size();
    if (hasVertexLabels())
        oriented.vertexLabels_ = vertexLabels_;
    return oriented;
}

Graph
Graph::inducedSubgraph(const std::vector<VertexId> &vertices) const
{
    std::vector<VertexId> remap(numVertices_, invalid_vertex);
    for (std::size_t i = 0; i < vertices.size(); ++i)
        remap[vertices[i]] = static_cast<VertexId>(i);

    GraphBuilder builder(static_cast<VertexId>(vertices.size()), directed_);
    for (VertexId u : vertices) {
        for (VertexId v : neighbors(u)) {
            if (remap[v] == invalid_vertex)
                continue;
            // For undirected graphs each edge appears twice in the CSR;
            // only emit it once (the builder re-mirrors it).
            if (!directed_ && remap[u] > remap[v])
                continue;
            builder.addEdge(remap[u], remap[v]);
        }
    }
    Graph sub = builder.build();
    if (hasVertexLabels()) {
        std::vector<Label> labels(vertices.size());
        for (std::size_t i = 0; i < vertices.size(); ++i)
            labels[i] = vertexLabels_[vertices[i]];
        sub.setVertexLabels(std::move(labels));
    }
    return sub;
}

std::uint64_t
Graph::degreeSquareSum() const
{
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < numVertices_; ++v) {
        const std::uint64_t d = degree(v);
        sum += d * d;
    }
    return sum;
}

std::string
Graph::describe() const
{
    std::ostringstream oss;
    oss << (directed_ ? "directed" : "undirected") << " graph: n="
        << numVertices_ << " m=" << numEdges_ << " dmax=" << maxDegree();
    return oss.str();
}

GraphBuilder::GraphBuilder(VertexId num_vertices, bool directed)
    : numVertices_(num_vertices), directed_(directed)
{
}

void
GraphBuilder::addEdge(VertexId u, VertexId v)
{
    if (u >= numVertices_ || v >= numVertices_)
        sisa_fatal("edge (", u, ",", v, ") out of range, n=", numVertices_);
    if (u == v)
        return; // Self-loops carry no information for mining kernels.
    edges_.emplace_back(u, v);
}

Graph
GraphBuilder::build()
{
    // Two counting-sort passes, with no comparison sort: bucket every
    // arc (and its mirror when undirected) by target, then walk the
    // targets in increasing order appending each to its source's row.
    // Every row comes out sorted, so duplicates sit side by side and
    // are dropped while the rows are compacted leftwards.
    const auto for_each_arc = [&](auto &&fn) {
        for (const auto &[u, v] : edges_) {
            fn(u, v);
            if (!directed_)
                fn(v, u);
        }
    };
    const std::size_t n = numVertices_;
    Graph graph;
    graph.numVertices_ = numVertices_;
    graph.directed_ = directed_;
    auto &offsets = graph.offsets_;
    auto &adj = graph.adj_;
    offsets.assign(n + 1, 0);
    std::vector<std::uint64_t> bucket(n + 1, 0);
    for_each_arc([&](VertexId u, VertexId v) {
        ++offsets[u + 1];
        ++bucket[v];
    });
    // offsets[u] starts row u; bucket[v] ends v's bucket until the
    // scatter walks it back to the bucket's start.
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    std::vector<VertexId> sources(offsets[n]);
    for_each_arc([&](VertexId u, VertexId v) { sources[--bucket[v]] = u; });
    std::vector<std::pair<VertexId, VertexId>>().swap(edges_);

    adj.resize(offsets[n]);
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (VertexId v = 0; v < numVertices_; ++v) {
        for (std::uint64_t i = bucket[v]; i < bucket[v + 1]; ++i)
            adj[cursor[sources[i]]++] = v;
    }
    std::vector<VertexId>().swap(sources);

    VertexId *data = adj.data();
    std::uint64_t out = 0;
    for (VertexId u = 0; u < numVertices_; ++u) {
        VertexId *first = data + offsets[u];
        VertexId *last = std::unique(first, data + offsets[u + 1]);
        if (out != offsets[u])
            std::copy(first, last, data + out);
        offsets[u] = out;
        out += static_cast<std::uint64_t>(last - first);
    }
    offsets[n] = out;
    adj.resize(out);
    adj.shrink_to_fit();
    graph.numEdges_ = directed_ ? out : out / 2;
    return graph;
}

} // namespace sisa::graph
