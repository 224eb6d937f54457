/**
 * @file
 * The shared worker pool: the only place in the simulator that may
 * construct raw threads.
 *
 * A simulation runs on one thread; the experiment sweep pool
 * (ExperimentRunner::runAll) and cloudbench run independent points
 * concurrently through WorkerPool, so the determinism linter can pin
 * thread construction to this file (rule `raw-thread`).
 *
 * WorkerPool is a dispatch pool: run(parties, job) executes
 * job(0..parties-1) with job(0) on the calling thread and the rest on
 * persistent workers, then blocks until all return. Dispatch costs a
 * mutex/condvar round trip, paid once per sweep batch.
 */

#ifndef CLOUDMC_COMMON_WORKER_POOL_HH
#define CLOUDMC_COMMON_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcsim {

/**
 * Persistent worker pool with caller participation.
 *
 * Construction spawns @p workers threads that sleep until dispatched;
 * destruction joins them. Not reentrant: one run() at a time, from one
 * caller thread.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(unsigned workers);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Execute job(0), job(1), ..., job(parties-1) concurrently: job(0)
     * runs on the calling thread, jobs 1..parties-1 on pool workers.
     * Requires parties <= workers() + 1. Returns when every job has;
     * the completion wait gives the caller a happens-after edge over
     * everything the jobs wrote.
     */
    void run(unsigned parties, const std::function<void(unsigned)> &job);

  private:
    void workerMain(unsigned index);

    std::mutex mu_;
    std::condition_variable wakeCv_; ///< Workers wait for a dispatch.
    std::condition_variable doneCv_; ///< Caller waits for completion.
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned parties_ = 0;
    std::uint64_t generation_ = 0;
    unsigned running_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> threads_;
};

} // namespace mcsim

#endif // CLOUDMC_COMMON_WORKER_POOL_HH
