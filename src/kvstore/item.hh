/**
 * @file
 * The in-memory item layout, memcached style.
 *
 * An item is a fixed header followed inline by the key bytes and the
 * value bytes, all living inside one slab chunk. Keeping the layout
 * inline (rather than std::string members) makes the store's memory
 * accounting faithful to real memcached, which is what the paper's
 * density arithmetic depends on.
 */

#ifndef MERCURY_KVSTORE_ITEM_HH
#define MERCURY_KVSTORE_ITEM_HH

#include <cstdint>
#include <cstring>
#include <string_view>

namespace mercury::kvstore
{

/**
 * Item header; key and value bytes follow contiguously.
 */
struct Item
{
    /** Next item in the hash-bucket chain. */
    Item *hNext = nullptr;
    /** StrictLru list linkage. */
    Item *lruNext = nullptr;
    Item *lruPrev = nullptr;

    /** Compare-and-swap token. */
    std::uint64_t casId = 0;

    /** Absolute expiry in store-clock seconds; 0 = never expires. */
    std::uint32_t expiry = 0;
    /** Store-clock second of the last insert or access; models
     * memcached's item time field, which no code reads here. */
    std::uint32_t lastAccess = 0;
    /** Opaque client flags stored with the value. */
    std::uint32_t clientFlags = 0;

    std::uint32_t valueLen = 0;
    std::uint16_t keyLen = 0;
    /** Slab class the chunk was allocated from. */
    std::uint8_t slabClass = 0;

    char *
    data()
    {
        return reinterpret_cast<char *>(this + 1);
    }

    const char *
    data() const
    {
        return reinterpret_cast<const char *>(this + 1);
    }

    std::string_view
    key() const
    {
        return {data(), keyLen};
    }

    std::string_view
    value() const
    {
        return {data() + keyLen, valueLen};
    }

    void
    setKey(std::string_view key)
    {
        keyLen = static_cast<std::uint16_t>(key.size());
        std::memcpy(data(), key.data(), key.size());
    }

    void
    setValue(std::string_view value)
    {
        valueLen = static_cast<std::uint32_t>(value.size());
        std::memcpy(data() + keyLen, value.data(), value.size());
    }

    /** Bytes an item with the given key/value sizes occupies. */
    static std::size_t
    totalSize(std::size_t key_len, std::size_t value_len)
    {
        return sizeof(Item) + key_len + value_len;
    }

    /** Total bytes this particular item occupies. */
    std::size_t
    size() const
    {
        return totalSize(keyLen, valueLen);
    }
};

static_assert(sizeof(Item) % alignof(Item) == 0,
              "item data() payload must start aligned");
static_assert(sizeof(Item) == 56,
              "item sizes pick slab classes and simulated addresses: "
              "the header size cannot move unless the goldens move "
              "with it");

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_ITEM_HH
