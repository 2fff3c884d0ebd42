#ifndef BIFSIM_WORKLOADS_FACTORIES_H
#define BIFSIM_WORKLOADS_FACTORIES_H

/**
 * @file
 * Factories for the 19 Table II workloads, defined in
 * kernels_amdapp.cc (AMD APP SDK) and kernels_parboil.cc (Parboil,
 * Rodinia) and registered by name in workload.cc.  Each takes the
 * input scale factor (1.0 = paper-sized).
 */

#include <memory>

#include "workloads/workload.h"

namespace bifsim::workloads {

std::unique_ptr<Workload> makeBinarySearch(double s);
std::unique_ptr<Workload> makeBinomialOption(double s);
std::unique_ptr<Workload> makeBitonicSort(double s);
std::unique_ptr<Workload> makeDct(double s);
std::unique_ptr<Workload> makeDwtHaar1D(double s);
std::unique_ptr<Workload> makeFloydWarshall(double s);
std::unique_ptr<Workload> makeMatrixTranspose(double s);
std::unique_ptr<Workload> makeRecursiveGaussian(double s);
std::unique_ptr<Workload> makeReduction(double s);
std::unique_ptr<Workload> makeScanLargeArrays(double s);
std::unique_ptr<Workload> makeSobelFilter(double s);
std::unique_ptr<Workload> makeUrng(double s);
std::unique_ptr<Workload> makeBackProp(double s);
std::unique_ptr<Workload> makeBfs(double s);
std::unique_ptr<Workload> makeCutcp(double s);
std::unique_ptr<Workload> makeNearestNeighbor(double s);
std::unique_ptr<Workload> makeSgemm(double s);
std::unique_ptr<Workload> makeSpmv(double s);
std::unique_ptr<Workload> makeStencil(double s);

} // namespace bifsim::workloads

#endif // BIFSIM_WORKLOADS_FACTORIES_H
