/**
 * @file
 * Agglomerative hierarchical clustering with average linkage --
 * equivalent to R's hclust(method = "average") which the paper uses to
 * build the program-similarity dendrograms of Fig. 5.
 */

#pragma once

#include <string>
#include <vector>

namespace acdse
{

/**
 * One merge step of the dendrogram. Node ids 0..n-1 are the leaves;
 * merge i creates node n+i.
 */
struct DendrogramMerge
{
    std::size_t left;    //!< first merged node id
    std::size_t right;   //!< second merged node id
    double height;       //!< average-linkage distance at the merge
};

/** The full merge tree over n leaves (n-1 merges, ascending height). */
struct Dendrogram
{
    std::size_t leaves = 0;                 //!< number of leaf items
    std::vector<DendrogramMerge> merges;    //!< the n-1 merges

    /**
     * Cut the tree so that @p k clusters remain; returns per-leaf
     * cluster ids in [0, k).
     */
    std::vector<std::size_t> cut(std::size_t k) const;

    /**
     * Height at which a leaf last merges into the rest, i.e. how far
     * this item is from every other group -- the paper reads outliers
     * (art, mcf) off this value.
     */
    double isolationHeight(std::size_t leaf) const;

    /** Render an indented text dendrogram using the given leaf names. */
    std::string render(const std::vector<std::string> &names) const;
};

/**
 * Cluster from a symmetric pairwise distance matrix (row-major, n x n).
 * Average linkage: d(A, B) = mean over cross pairs.
 */
Dendrogram hierarchicalCluster(const std::vector<std::vector<double>> &dist);

} // namespace acdse

