/**
 * @file
 * Process-wide cache of immutable setup tables.
 *
 * Some per-job setup work is a pure function of a few parameters
 * that repeat across jobs (a Zipf CDF for a footprint and skew, the
 * page allocator's stream prefix for a geometry and seed).  Each
 * such table is built the first time its key is asked for and then
 * shared, read-only, by every later instance in any thread.
 *
 * The lock is taken only on lookup, i.e. in constructors; readers
 * of a returned table need none, since it never changes after it is
 * built.  Nothing is evicted: there are few distinct keys per
 * process, and one shared copy replaces the copy each instance
 * would otherwise hold.
 */

#ifndef PROFESS_COMMON_SHARED_TABLES_HH
#define PROFESS_COMMON_SHARED_TABLES_HH

#include <map>
#include <memory>
#include <mutex>

namespace profess
{

/**
 * The process's tables of one type, keyed by the inputs they are a
 * function of.  Each (Key, Table) pair has one cache.
 */
template <typename Key, typename Table>
class SharedTables
{
  public:
    /**
     * @param key The table's inputs.
     * @param build Called (under the lock) to make the table the
     *        first time `key` is seen; must depend on `key` only.
     * @return the table for `key`, valid until the process exits.
     */
    template <typename Build>
    static const Table &
    get(const Key &key, Build &&build)
    {
        SharedTables &cache = instance();
        std::lock_guard<std::mutex> lock(cache.mu_);
        auto it = cache.tables_.find(key);
        if (it == cache.tables_.end())
            it = cache.tables_
                     .emplace(key,
                              std::make_unique<const Table>(build()))
                     .first;
        return *it->second;
    }

  private:
    static SharedTables &
    instance()
    {
        static SharedTables cache;
        return cache;
    }

    std::mutex mu_;
    std::map<Key, std::unique_ptr<const Table>> tables_;
};

} // namespace profess

#endif // PROFESS_COMMON_SHARED_TABLES_HH
