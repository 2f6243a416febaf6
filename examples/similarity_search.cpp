// Record-similarity search over tuple embeddings — the downstream task
// family motivating the paper's introduction (record similarity / linking
// / entity resolution). Trains a FoRWaRD embedding on the Genes database,
// builds a nearest-neighbor index, and shows that a tuple's closest
// neighbors in embedding space overwhelmingly share its (hidden) class,
// then persists the model as a store directory and reopens it.
//
//   $ ./similarity_search [k]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/data/registry.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/ml/knn.h"
#include "src/store/embedding_store.h"

using namespace stedb;

int main(int argc, char** argv) {
  const size_t k = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5;

  data::GenConfig gen;
  gen.scale = 0.2;
  gen.seed = 31;
  data::GeneratedDataset ds = std::move(data::MakeGenes(gen)).value();

  fwd::ForwardConfig cfg;
  cfg.dim = 24;
  cfg.max_walk_len = 2;
  cfg.nsamples = 24;
  cfg.epochs = 12;
  cfg.lr = 0.01;
  fwd::AttrKeySet excluded;
  excluded.insert({ds.pred_rel, ds.pred_attr});
  auto emb = fwd::ForwardEmbedder::TrainStatic(&ds.database, ds.pred_rel,
                                               excluded, cfg);
  if (!emb.ok()) {
    std::fprintf(stderr, "train: %s\n", emb.status().ToString().c_str());
    return 1;
  }

  // One batch read for the whole index instead of a per-fact copy loop.
  la::Matrix vectors(ds.Samples().size(), emb.value().dim());
  Status batch = emb.value().EmbedBatch(ds.Samples(), vectors);
  if (!batch.ok()) {
    std::fprintf(stderr, "embed batch: %s\n", batch.ToString().c_str());
    return 1;
  }
  ml::EmbeddingIndex index(ml::SimilarityMetric::kCosine);
  index.AddBatch(ds.Samples(), vectors);
  std::printf("indexed %zu gene embeddings (dim %zu)\n\n", index.size(),
              emb.value().dim());

  // How often do a tuple's top-k neighbors share its class? (The index
  // never saw the labels.)
  size_t same = 0, total = 0;
  for (db::FactId f : ds.Samples()) {
    auto neighbors = index.TopKOf(f, k).value();
    for (const ml::Neighbor& n : neighbors) {
      ++total;
      if (ds.LabelOf(n.fact) == ds.LabelOf(f)) ++same;
    }
  }
  const double purity = 100.0 * static_cast<double>(same) /
                        static_cast<double>(total > 0 ? total : 1);
  // Chance level = average class prior mass.
  std::printf("top-%zu neighbor label purity: %.1f%% (chance would be "
              "~%.1f%% under the class priors)\n\n",
              k, purity, 100.0 / 6.0);

  // Show one query.
  db::FactId query = ds.Samples().front();
  std::printf("query %s (localization %s):\n",
              ds.database.value(query, 0).ToString().c_str(),
              ds.LabelOf(query).c_str());
  const std::vector<ml::Neighbor> query_hits =
      index.TopKOf(query, k).value();
  for (const ml::Neighbor& n : query_hits) {
    std::printf("  %-8s sim=%.3f  localization=%s\n",
                ds.database.value(n.fact, 0).ToString().c_str(), n.score,
                ds.LabelOf(n.fact).c_str());
  }

  // Persist the trained model as a store directory (snapshot + empty WAL)
  // and reopen it: every vector must come back bit-exact.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "stedb_genes_store").string();
  auto created = fwd::CreateForwardStore(dir, emb.value().model());
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return 1;
  }
  auto reopened = store::EmbeddingStore::Open(dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "open: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  const double diff = store::StoredModelMaxAbsDiff(created.value().model(),
                                                   reopened.value().model());
  std::printf("\nmodel round trip via %s: %zu vectors, max abs diff %g\n",
              dir.c_str(), reopened.value().model().num_embedded(), diff);
  return purity > 25.0 && diff == 0.0 ? 0 : 1;
}
