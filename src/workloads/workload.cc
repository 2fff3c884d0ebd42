#include "workloads/workload.h"

#include <map>

#include "common/logging.h"
#include "workloads/factories.h"

namespace bifsim::workloads {

namespace {

using Factory = std::unique_ptr<Workload> (*)(double);

const std::map<std::string, Factory> &
registry()
{
    static const std::map<std::string, Factory> reg = {
        {"backprop", makeBackProp},
        {"bfs", makeBfs},
        {"binarysearch", makeBinarySearch},
        {"binomialoption", makeBinomialOption},
        {"bitonicsort", makeBitonicSort},
        {"cutcp", makeCutcp},
        {"dct", makeDct},
        {"dwthaar1d", makeDwtHaar1D},
        {"floydwarshall", makeFloydWarshall},
        {"matrixtranspose", makeMatrixTranspose},
        {"nn", makeNearestNeighbor},
        {"recursivegaussian", makeRecursiveGaussian},
        {"reduction", makeReduction},
        {"scanlargearrays", makeScanLargeArrays},
        {"sgemm", makeSgemm},
        {"sobelfilter", makeSobelFilter},
        {"spmv", makeSpmv},
        {"stencil", makeStencil},
        {"urng", makeUrng},
    };
    return reg;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale)
{
    auto it = registry().find(name);
    if (it == registry().end())
        simError("unknown workload '%s'", name.c_str());
    return it->second(scale);
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

std::vector<std::string>
fig7WorkloadNames()
{
    return {"binarysearch", "binomialoption", "bitonicsort", "dct",
            "dwthaar1d",    "matrixtranspose", "reduction",
            "sobelfilter",  "urng"};
}

std::vector<std::string>
fig8WorkloadNames()
{
    return {"binarysearch",      "binomialoption", "bitonicsort",
            "dct",               "dwthaar1d",      "floydwarshall",
            "matrixtranspose",   "recursivegaussian", "reduction",
            "scanlargearrays",   "sobelfilter",    "sgemm",
            "stencil"};
}

} // namespace bifsim::workloads
