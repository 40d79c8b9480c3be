#include "ml/hierarchical.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

std::vector<std::size_t>
Dendrogram::cut(std::size_t k) const
{
    ACDSE_CHECK(k >= 1 && k <= leaves, "bad cluster count");
    // Applying the first (leaves - k) merges leaves exactly k groups.
    std::vector<std::size_t> parent(leaves + merges.size());
    for (std::size_t i = 0; i < parent.size(); ++i)
        parent[i] = i;
    auto find = [&](std::size_t x) {
        while (parent[x] != x)
            x = parent[x] = parent[parent[x]];
        return x;
    };
    const std::size_t steps = leaves - k;
    for (std::size_t m = 0; m < steps; ++m) {
        const std::size_t node = leaves + m;
        parent[find(merges[m].left)] = node;
        parent[find(merges[m].right)] = node;
    }
    std::vector<std::size_t> ids(leaves);
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < leaves; ++i) {
        const std::size_t root = find(i);
        auto it = std::find(roots.begin(), roots.end(), root);
        if (it == roots.end()) {
            roots.push_back(root);
            ids[i] = roots.size() - 1;
        } else {
            ids[i] = static_cast<std::size_t>(it - roots.begin());
        }
    }
    return ids;
}

double
Dendrogram::isolationHeight(std::size_t leaf) const
{
    // Every leaf participates directly in exactly one merge; its height
    // is how far the leaf is from everything else when it finally joins.
    ACDSE_CHECK(leaf < leaves, "bad leaf id");
    for (const auto &m : merges) {
        if (m.left == leaf || m.right == leaf)
            return m.height;
    }
    return 0.0;
}

std::string
Dendrogram::render(const std::vector<std::string> &names) const
{
    ACDSE_CHECK(names.size() == leaves, "name count mismatch");
    std::ostringstream os;
    // Recursive pretty printer, children sorted for stable output.
    auto print = [&](auto &&self, std::size_t node, int depth) -> void {
        const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
        if (node < leaves) {
            os << indent << "- " << names[node] << '\n';
            return;
        }
        const auto &m = merges[node - leaves];
        os << indent << "+ h=" << m.height << '\n';
        self(self, m.left, depth + 1);
        self(self, m.right, depth + 1);
    };
    if (leaves == 1) {
        os << "- " << names[0] << '\n';
    } else {
        print(print, leaves + merges.size() - 1, 0);
    }
    return os.str();
}

Dendrogram
hierarchicalCluster(const std::vector<std::vector<double>> &dist)
{
    const std::size_t n = dist.size();
    ACDSE_CHECK(n >= 1, "clustering needs at least one item");
    for (const auto &row : dist)
        ACDSE_CHECK(row.size() == n, "distance matrix must be square");

    Dendrogram tree;
    tree.leaves = n;
    if (n == 1)
        return tree;

    // Active cluster list: node id + member leaves.
    struct Cluster
    {
        std::size_t node;
        std::vector<std::size_t> items;
    };
    std::vector<Cluster> active;
    active.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        active.push_back({i, {i}});

    auto linkage = [&](const Cluster &a, const Cluster &b) {
        double total = 0.0;
        for (std::size_t i : a.items)
            for (std::size_t j : b.items)
                total += dist[i][j];
        return total /
               static_cast<double>(a.items.size() * b.items.size());
    };

    while (active.size() > 1) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bi = 0, bj = 1;
        for (std::size_t i = 0; i < active.size(); ++i) {
            for (std::size_t j = i + 1; j < active.size(); ++j) {
                const double d = linkage(active[i], active[j]);
                if (d < best) {
                    best = d;
                    bi = i;
                    bj = j;
                }
            }
        }
        Cluster merged;
        merged.node = n + tree.merges.size();
        merged.items = active[bi].items;
        merged.items.insert(merged.items.end(), active[bj].items.begin(),
                            active[bj].items.end());
        tree.merges.push_back({active[bi].node, active[bj].node, best});
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(bj));
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(bi));
        active.push_back(std::move(merged));
    }
    return tree;
}

} // namespace acdse
