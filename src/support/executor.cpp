#include "support/executor.hpp"

#include "support/thread_pool.hpp"

namespace capi::support {

ThreadPool& Executor::pool() {
    // Magic static: thread-safe lazy construction, joined at process exit.
    static ThreadPool shared(ThreadPool::defaultThreadCount());
    return shared;
}

}  // namespace capi::support
