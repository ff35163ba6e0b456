/**
 * @file
 * Contract-violation tests for the store's data structures: slab
 * double free / foreign free, hash-table corruption, and LRU list
 * misuse. Each test deliberately breaks an invariant and checks that
 * the contract layer reports it instead of corrupting memory.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvstore/eviction.hh"
#include "kvstore/hash.hh"
#include "kvstore/hash_table.hh"
#include "kvstore/slab.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury::kvstore;
using mercury::contract::ContractViolation;
using mercury::contract::ScopedContractThrow;
using mercury::detail::concat;

// --- Slab allocator -----------------------------------------------

SlabParams
smallSlabParams()
{
    SlabParams params;
    params.memLimit = 4 * mercury::miB;
    params.pageSize = 1 * mercury::miB;
    return params;
}

TEST(SlabContract, DoubleFreeIsCaught)
{
    SlabAllocator slabs(smallSlabParams());
    const unsigned cls = slabs.classFor(100);
    void *chunk = slabs.allocate(cls);
    ASSERT_NE(chunk, nullptr);
    slabs.free(cls, chunk);

    ScopedContractThrow guard;
    EXPECT_THROW(slabs.free(cls, chunk), ContractViolation);
}

TEST(SlabContract, FreeingIntoTheWrongClassIsCaught)
{
    SlabAllocator slabs(smallSlabParams());
    const unsigned small_cls = slabs.classFor(100);
    const unsigned big_cls = slabs.classFor(64 * mercury::kiB);
    ASSERT_NE(small_cls, big_cls);
    void *chunk = slabs.allocate(small_cls);
    ASSERT_NE(chunk, nullptr);

    ScopedContractThrow guard;
    EXPECT_THROW(slabs.free(big_cls, chunk), ContractViolation);

    slabs.free(small_cls, chunk);  // correct class still works
}

TEST(SlabContract, FreeingAForeignPointerIsCaught)
{
    SlabAllocator slabs(smallSlabParams());
    const unsigned cls = slabs.classFor(100);
    ASSERT_NE(slabs.allocate(cls), nullptr);

    char local[128];
    ScopedContractThrow guard;
    EXPECT_THROW(slabs.free(cls, local), ContractViolation);
}

TEST(SlabContract, FreeingAMisalignedInteriorPointerIsCaught)
{
    SlabAllocator slabs(smallSlabParams());
    const unsigned cls = slabs.classFor(100);
    char *chunk = static_cast<char *>(slabs.allocate(cls));
    ASSERT_NE(chunk, nullptr);

    ScopedContractThrow guard;
    EXPECT_THROW(slabs.free(cls, chunk + 1), ContractViolation);
    slabs.free(cls, chunk);
}

TEST(SlabContract, ConsistencyAuditPassesThroughChurn)
{
    SlabAllocator slabs(smallSlabParams());
    const unsigned cls = slabs.classFor(300);
    std::vector<void *> chunks;
    for (int i = 0; i < 2000; ++i) {
        void *chunk = slabs.allocate(cls);
        if (!chunk)
            break;
        chunks.push_back(chunk);
    }
    for (std::size_t i = 0; i < chunks.size(); i += 2)
        slabs.free(cls, chunks[i]);
    EXPECT_TRUE(slabs.checkConsistency());
}

// --- Hash table ----------------------------------------------------

/** Owns item storage, like the store does. */
class HashContract : public ::testing::Test
{
  protected:
    Item *
    makeItem(const std::string &key)
    {
        const std::size_t size = Item::totalSize(key.size(), 1);
        storage_.push_back(std::make_unique<char[]>(size));
        Item *item = new (storage_.back().get()) Item();
        item->setKey(key);
        item->setValue("v");
        return item;
    }

    HashTable table_{4};
    std::vector<std::unique_ptr<char[]>> storage_;
};

TEST_F(HashContract, InsertingAStillLinkedItemIsCaught)
{
    // Force both items into one bucket by handing insert the same
    // hash, so the re-inserted node is mid-chain (hNext set).
    Item *a = makeItem("alpha");
    Item *b = makeItem("beta");
    table_.insert(a, 42);
    table_.insert(b, 42);

    ScopedContractThrow guard;
    // Re-inserting a linked node would splice it into a second chain
    // and corrupt both.
    EXPECT_THROW(table_.insert(b, 42), ContractViolation);
}

TEST_F(HashContract, CorruptedChainIsDetectedByValidate)
{
    Item *a = makeItem("alpha");
    Item *b = makeItem("beta");
    table_.insert(a, hashKey("alpha"));
    table_.insert(b, hashKey("beta"));
    table_.validate();  // healthy table passes

    // Simulate a stray write creating a self-cycle.
    a->hNext = a;

    ScopedContractThrow guard;
    EXPECT_THROW(table_.validate(), ContractViolation);
    a->hNext = nullptr;  // un-corrupt so teardown stays clean
}

TEST_F(HashContract, IntegrityHoldsAcrossExpansion)
{
    // Three doublings, audited after every insert.
    const std::size_t initial = table_.buckets();
    for (int i = 0; table_.buckets() < 8 * initial; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
        ASSERT_TRUE(table_.checkIntegrity()) << "after " << key;
    }
    table_.validate();
}

// --- LRU lists -----------------------------------------------------

class ListContract : public ::testing::Test
{
  protected:
    Item *
    makeItem(const std::string &key)
    {
        const std::size_t size = Item::totalSize(key.size(), 1);
        storage_.push_back(std::make_unique<char[]>(size));
        Item *item = new (storage_.back().get()) Item();
        item->setKey(key);
        item->setValue("v");
        return item;
    }

    ItemList list_;
    std::vector<std::unique_ptr<char[]>> storage_;
};

TEST_F(ListContract, DoubleLinkIsCaught)
{
    Item *item = makeItem("alpha");
    list_.pushFront(item);

    ScopedContractThrow guard;
    EXPECT_THROW(list_.pushFront(item), ContractViolation);
}

TEST_F(ListContract, UnlinkingAnUnlinkedItemIsCaught)
{
    Item *linked = makeItem("alpha");
    Item *stray = makeItem("beta");
    list_.pushFront(linked);

    ScopedContractThrow guard;
    EXPECT_THROW(list_.unlink(stray), ContractViolation);
}

TEST_F(ListContract, WellFormednessHoldsThroughChurn)
{
    std::vector<Item *> items;
    for (int i = 0; i < 64; ++i) {
        items.push_back(makeItem(concat("k", i)));
        list_.pushFront(items.back());
        EXPECT_TRUE(list_.checkWellFormed());
    }
    for (int i = 0; i < 64; i += 3) {
        list_.unlink(items[static_cast<std::size_t>(i)]);
        EXPECT_TRUE(list_.checkWellFormed());
    }
}

} // anonymous namespace
