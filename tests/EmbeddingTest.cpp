//===- tests/EmbeddingTest.cpp - path-context and code2vec tests ----------===//

#include "embedding/Code2Vec.h"
#include "embedding/PathContext.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace nv;

namespace {

std::vector<PathContext> contextsOf(const std::string &Source,
                                    const PathContextConfig &Config) {
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  EXPECT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  EXPECT_FALSE(Sites.empty());
  return extractPathContexts(*Sites[0].Outer, Config);
}

TEST(PathContext, DeterministicExtraction) {
  PathContextConfig Config;
  const char *Src = "int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                    "a[i] = i * 2; } }";
  auto C1 = contextsOf(Src, Config);
  auto C2 = contextsOf(Src, Config);
  ASSERT_EQ(C1.size(), C2.size());
  for (size_t I = 0; I < C1.size(); ++I) {
    EXPECT_EQ(C1[I].SrcToken, C2[I].SrcToken);
    EXPECT_EQ(C1[I].Path, C2[I].Path);
    EXPECT_EQ(C1[I].DstToken, C2[I].DstToken);
  }
  EXPECT_FALSE(C1.empty());
}

TEST(PathContext, VocabularyBounds) {
  PathContextConfig Config;
  Config.TokenVocabSize = 64;
  Config.PathVocabSize = 32;
  auto Contexts = contextsOf(
      "float x[64]; float y[64]; void f() { for (int i = 0; i < 64; i++) "
      "{ y[i] = x[i] * 3.0 + y[i]; } }",
      Config);
  for (const PathContext &C : Contexts) {
    EXPECT_GE(C.SrcToken, 0);
    EXPECT_LT(C.SrcToken, 64);
    EXPECT_GE(C.Path, 0);
    EXPECT_LT(C.Path, 32);
    EXPECT_GE(C.DstToken, 0);
    EXPECT_LT(C.DstToken, 64);
  }
}

TEST(PathContext, MaxContextsCapRespected) {
  PathContextConfig Config;
  Config.MaxContexts = 10;
  auto Contexts = contextsOf(
      "float A[32][32]; float B[32][32]; float C[32][32]; void f() { for "
      "(int i = 0; i < 32; i++) { for (int j = 0; j < 32; j++) { C[i][j] "
      "= A[i][j] * B[i][j] + C[i][j]; } } }",
      Config);
  EXPECT_LE(Contexts.size(), 10u);
  EXPECT_FALSE(Contexts.empty());
}

TEST(PathContext, DifferentLoopsDifferentContexts) {
  PathContextConfig Config;
  auto A = contextsOf("int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                      "a[i] = 1; } }",
                      Config);
  auto B = contextsOf("float s[64]; float o; void f() { float m = 0; for "
                      "(int i = 0; i < 64; i++) { m += s[i] * s[i]; } o = "
                      "m; }",
                      Config);
  // At least the context multisets must differ.
  EXPECT_NE(A.size(), B.size());
}

TEST(PathContext, RenamedVariablesChangeTokensNotPaths) {
  // The paper's generators rename parameters to de-bias the embedding;
  // renaming must keep the *path* structure identical.
  PathContextConfig Config;
  auto A = contextsOf("int a[8]; void f() { for (int i = 0; i < 8; i++) { "
                      "a[i] = i; } }",
                      Config);
  auto B = contextsOf("int zz[8]; void f() { for (int k = 0; k < 8; k++) "
                      "{ zz[k] = k; } }",
                      Config);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Path, B[I].Path);
}

TEST(PathContext, PinnedVocabHashes) {
  // The exact token -> vocab-id mapping is load-bearing: a trained model's
  // embedding tables are indexed by these ids, so any silent change to the
  // hash (interning, folding, bias fix) re-buckets the vocabulary and
  // invalidates every saved model. Values computed independently (Python)
  // from the documented definition: hashToVocab(fnv1a(token)).
  EXPECT_EQ(hashToken("i", 2048), 1127);
  EXPECT_EQ(hashToken("sum", 2048), 467);
  EXPECT_EQ(hashToken("<flt>", 2048), 710);
  EXPECT_EQ(hashToken("0", 2048), 1399);
  EXPECT_EQ(hashToken("512", 2048), 1674);
  EXPECT_EQ(hashToken("float", 2048), 611);
  // Folding is not plain truncation: small vocabularies see the high bits.
  EXPECT_EQ(hashToken("i", 64), 35);
  EXPECT_EQ(hashToken("sum", 64), 14);

  // One pinned structural path hash: up labels [Var, Asg+] (LCA last),
  // down labels [Arr].
  const uint64_t Up = pathHashPush(pathHashPush(pathHashSeed(), fnv1a("Var")),
                                   fnv1a("Asg+"));
  const uint64_t Down = pathHashPush(pathHashSeed(), fnv1a("Arr"));
  EXPECT_EQ(hashToVocab(pathHashCombine(Up, Down), 4096), 1266);
  // Direction matters: the reversed path hashes differently.
  const uint64_t RevUp = pathHashPush(pathHashPush(pathHashSeed(),
                                                   fnv1a("Arr")),
                                      fnv1a("Asg+"));
  const uint64_t RevDown = pathHashPush(pathHashSeed(), fnv1a("Var"));
  EXPECT_NE(pathHashCombine(Up, Down), pathHashCombine(RevUp, RevDown));
}

TEST(PathContext, HashToVocabIsUnbiasedAtBoundaries) {
  // The Lemire multiply-shift maps [0, 2^64) onto [0, V) without the
  // low-residue bias of `%` and never returns out-of-range ids, including
  // for vocabularies that do not divide 2^64.
  for (int Vocab : {1, 2, 13, 17, 64, 2048, 4095}) {
    for (uint64_t Hash :
         {uint64_t(0), uint64_t(1), ~uint64_t(0), fnv1a("i"),
          fnv1a("some-longer-token"), uint64_t(0x8000000000000000ull)}) {
      const int Id = hashToVocab(Hash, Vocab);
      EXPECT_GE(Id, 0);
      EXPECT_LT(Id, Vocab);
    }
  }
  // All-distinct small inputs must not all collapse into one bucket (the
  // old low-bits-only modulo did exactly that for stride-2^k hashes).
  int Seen[8] = {0};
  for (uint64_t I = 0; I < 64; ++I)
    ++Seen[hashToVocab(I << 32, 8)];
  int NonEmpty = 0;
  for (int Count : Seen)
    NonEmpty += Count > 0;
  EXPECT_GT(NonEmpty, 4);
}

TEST(Code2Vec, OutputShapeAndDeterminism) {
  RNG R(5);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  auto Contexts = contextsOf(
      "int a[8]; void f() { for (int i = 0; i < 8; i++) { a[i] = i; } }",
      Config.Paths);
  Matrix V1 = Embedder.encode(Contexts);
  Matrix V2 = Embedder.encode(Contexts);
  ASSERT_EQ(V1.rows(), 1);
  ASSERT_EQ(V1.cols(), Config.CodeDim);
  for (int D = 0; D < Config.CodeDim; ++D)
    EXPECT_DOUBLE_EQ(V1.at(0, D), V2.at(0, D));
}

TEST(Code2Vec, EmptyContextsEncodeToZero) {
  RNG R(5);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  Matrix V = Embedder.encode({});
  for (int D = 0; D < Config.CodeDim; ++D)
    EXPECT_DOUBLE_EQ(V.at(0, D), 0.0);
  // Backward through the empty sample must be a no-op, not a crash.
  Matrix G(1, Config.CodeDim, 1.0);
  Embedder.backward(G);
}

TEST(Code2Vec, GradientsMatchFiniteDifferences) {
  RNG R(3);
  Code2VecConfig Config;
  Config.Paths.TokenVocabSize = 32;
  Config.Paths.PathVocabSize = 32;
  Config.TokenDim = 4;
  Config.PathDim = 4;
  Config.CodeDim = 5;
  Code2Vec Embedder(Config, R);
  std::vector<PathContext> Contexts = {
      {1, 2, 3}, {4, 5, 6}, {1, 5, 3}, {7, 8, 9}};
  Matrix G(1, 5);
  for (int I = 0; I < 5; ++I)
    G.at(0, I) = 0.3 * I - 0.5;

  auto LossOf = [&]() {
    Matrix V = Embedder.encode(Contexts);
    double L = 0;
    for (int I = 0; I < 5; ++I)
      L += V.at(0, I) * G.at(0, I);
    return L;
  };

  for (Param *P : Embedder.params())
    P->zeroGrad();
  (void)LossOf();
  Embedder.backward(G);

  const double Eps = 1e-6;
  double MaxRel = 0.0;
  int Checked = 0;
  for (Param *P : Embedder.params()) {
    const size_t Stride = std::max<size_t>(1, P->Value.size() / 16);
    for (size_t I = 0; I < P->Value.size(); I += Stride) {
      const double Old = P->Value.raw()[I];
      P->Value.raw()[I] = Old + Eps;
      const double L1 = LossOf();
      P->Value.raw()[I] = Old - Eps;
      const double L2 = LossOf();
      P->Value.raw()[I] = Old;
      const double Num = (L1 - L2) / (2 * Eps);
      const double Ana = P->Grad.raw()[I];
      if (std::fabs(Num) + std::fabs(Ana) > 1e-10) {
        MaxRel = std::max(MaxRel, std::fabs(Num - Ana) /
                                      (std::fabs(Num) + std::fabs(Ana)));
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 10);
  EXPECT_LT(MaxRel, 1e-6);
}

TEST(Code2Vec, AttentionWeightsAreADistribution) {
  // Indirectly: scaling one context's embedding shifts the output but the
  // encoding stays bounded by the max context norm (convex combination of
  // tanh vectors: every output dim stays within [-1, 1]).
  RNG R(9);
  Code2VecConfig Config;
  Code2Vec Embedder(Config, R);
  auto Contexts = contextsOf(
      "float A[32][32]; void f() { for (int i = 0; i < 32; i++) { for "
      "(int j = 0; j < 32; j++) { A[i][j] = 0.5; } } }",
      Config.Paths);
  Matrix V = Embedder.encode(Contexts);
  for (int D = 0; D < Config.CodeDim; ++D) {
    EXPECT_LE(V.at(0, D), 1.0);
    EXPECT_GE(V.at(0, D), -1.0);
  }
}

TEST(Code2Vec, SharedForwardCachesGiveExpandedBatchGradients) {
  // Rows 0, 2 and 5 share one bag, rows 1 and 4 another; row 3 is empty.
  // Backward through one cache per distinct bag must give every parameter
  // the bits of a backward over the expanded duplicate batch.
  Code2VecConfig Config;
  std::vector<std::vector<PathContext>> Bags = {
      contextsOf("float a[64]; float b[64]; void f() { for (int i = 0; i < "
                 "64; i++) { a[i] = a[i] * b[i] + 1.0; } }",
                 Config.Paths),
      contextsOf("int v[32]; int s; void f() { for (int i = 0; i < 32; "
                 "i++) { s += v[i] * v[i]; } }",
                 Config.Paths),
      {}};
  const std::vector<int> SampleOfRow = {0, 1, 0, 2, 1, 0};
  const int Rows = static_cast<int>(SampleOfRow.size());

  RNG RA(21), RB(21);
  Code2Vec Expanded(Config, RA), Shared(Config, RB);
  RNG GradRng(5);
  Matrix dV(Rows, Config.CodeDim);
  dV.initGaussian(GradRng, 1.0);

  std::vector<std::vector<PathContext>> ExpandedBags;
  for (int S : SampleOfRow)
    ExpandedBags.push_back(Bags[S]);
  Matrix VExpanded, VShared;
  Expanded.encodeBatchInto(ExpandedBags, VExpanded);
  std::vector<ContextSpan> Spans;
  for (const auto &Bag : Bags)
    Spans.push_back({Bag.data(), Bag.size()});
  Shared.encodeSpansForBackwardInto(Spans, VShared);
  for (int R = 0; R < Rows; ++R)
    EXPECT_EQ(std::memcmp(VExpanded.rowPtr(R), VShared.rowPtr(SampleOfRow[R]),
                          sizeof(double) * Config.CodeDim),
              0)
        << "code vector of row " << R;

  for (Param *P : Expanded.params())
    P->zeroGrad();
  for (Param *P : Shared.params())
    P->zeroGrad();
  Expanded.backward(dV);
  Shared.backward(dV, SampleOfRow);
  const std::vector<Param *> A = Expanded.params(), B = Shared.params();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_EQ(A[I]->Grad.size(), B[I]->Grad.size());
    EXPECT_EQ(std::memcmp(A[I]->Grad.raw().data(), B[I]->Grad.raw().data(),
                          sizeof(double) * A[I]->Grad.size()),
              0)
        << "gradient of parameter " << I;
  }
}

} // namespace
