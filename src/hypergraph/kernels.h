// Host-ISA report kept for the perfbench driver, which stamps it into its
// run metadata. No library code dispatches on it: every incidence walk is a
// plain CSR or word loop (hypergraph/flat_hypergraph.h).
#ifndef GHD_HYPERGRAPH_KERNELS_H_
#define GHD_HYPERGRAPH_KERNELS_H_

namespace ghd {
namespace kernels {

enum class KernelDispatch : int { kScalar = 0, kAvx2 = 1 };

inline const char* KernelDispatchName(KernelDispatch d) {
  return d == KernelDispatch::kAvx2 ? "avx2" : "scalar";
}

/// kAvx2 when the running CPU reports AVX2 (cpuid), else kScalar.
inline KernelDispatch SelectedDispatch() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return KernelDispatch::kAvx2;
#endif
  return KernelDispatch::kScalar;
}

}  // namespace kernels
}  // namespace ghd

#endif  // GHD_HYPERGRAPH_KERNELS_H_
