// A fixed reference workload that measures how fast this machine runs
// simulator-like code right now. The host timings of this benchmark swing by
// up to 1.6x over minutes on a shared 4-vCPU VM as neighbours contend for
// caches and memory, while a pure-ALU loop stays flat; timing this kernel
// next to every repetition and scaling by it cancels most of that swing.
// The kernel is the benchmark's own code, so no change to the program under
// test can move it.

#ifndef PERFBENCH_CPP_REFERENCE_H_
#define PERFBENCH_CPP_REFERENCE_H_

namespace perfbench {

// Host seconds the reference kernel took this time.
double TimeReferenceKernel();

// Its time on an uncontended run of the machine the bounds were set on:
// 4-vCPU Intel Xeon VM at 2.1 GHz, g++ 12.2 -O3.
constexpr double kReferenceNominalS = 0.060;

}  // namespace perfbench

#endif  // PERFBENCH_CPP_REFERENCE_H_
