/**
 * @file
 * A vector of trivially copyable values that keeps up to N of them
 * inline and spills to the heap only beyond that. Instruction operands
 * and angles use it: every gate has at most three of each, so copying,
 * appending and rewriting a circuit allocates nothing per gate.
 */
#ifndef CAQR_UTIL_SMALL_VECTOR_H
#define CAQR_UTIL_SMALL_VECTOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <vector>

namespace caqr::util {

/**
 * Storage is a union of the inline array and a heap pointer, plus a
 * 32-bit size and capacity: the capacity is N exactly while the values
 * sit inline, and larger once they spilled. The API is the subset of
 * `std::vector` the circuit IR uses, with conversions from and to it.
 */
template <typename T, std::uint32_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector copies its values bytewise");
    static_assert(N > 0, "SmallVector needs inline capacity");

  public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = T*;
    using const_iterator = const T*;

    SmallVector() noexcept {}
    SmallVector(std::initializer_list<T> values)
    {
        assign(values.begin(), values.size());
    }
    SmallVector(const std::vector<T>& values)
    {
        assign(values.data(), values.size());
    }
    SmallVector(const SmallVector& other)
    {
        assign(other.data(), other.size_);
    }
    SmallVector(SmallVector&& other) noexcept { take(other); }
    ~SmallVector() { release(); }

    SmallVector&
    operator=(const SmallVector& other)
    {
        if (this != &other) assign(other.data(), other.size_);
        return *this;
    }
    SmallVector&
    operator=(SmallVector&& other) noexcept
    {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }
    SmallVector&
    operator=(std::initializer_list<T> values)
    {
        assign(values.begin(), values.size());
        return *this;
    }
    SmallVector&
    operator=(const std::vector<T>& values)
    {
        assign(values.data(), values.size());
        return *this;
    }

    /// Explicit, so no caller allocates without saying so.
    explicit operator std::vector<T>() const
    {
        return std::vector<T>(begin(), end());
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// True while the values sit in the inline array.
    bool is_inline() const { return capacity_ == N; }

    T* data() { return is_inline() ? inline_ : heap_; }
    const T* data() const { return is_inline() ? inline_ : heap_; }
    T* begin() { return data(); }
    T* end() { return data() + size_; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size_; }

    T& operator[](std::size_t i) { return data()[i]; }
    const T& operator[](std::size_t i) const { return data()[i]; }
    T& front() { return data()[0]; }
    const T& front() const { return data()[0]; }
    T& back() { return data()[size_ - 1]; }
    const T& back() const { return data()[size_ - 1]; }

    void
    push_back(const T& value)
    {
        const T copy = value;  // @p value may live in this vector
        if (size_ == capacity_) grow(2 * std::size_t{capacity_});
        data()[size_++] = copy;
    }

    void clear() { size_ = 0; }

    friend bool
    operator==(const SmallVector& a, const SmallVector& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool
    operator==(const SmallVector& a, const std::vector<T>& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    /// Replaces the contents with @p count values from @p values, which
    /// must not point into this vector.
    void
    assign(const T* values, std::size_t count)
    {
        if (count > capacity_) {
            release();
            size_ = 0;
            grow(count);
        }
        std::copy_n(values, count, data());
        size_ = static_cast<std::uint32_t>(count);
    }

    /// Moves the values to a heap buffer of @p capacity > capacity_.
    void
    grow(std::size_t capacity)
    {
        T* buffer = std::allocator<T>().allocate(capacity);
        // An element loop, not std::copy_n: GCC 12 flags a spurious
        // -Warray-bounds on the memmove the latter inlines to here.
        const T* values = data();
        for (std::uint32_t i = 0; i < size_; ++i) buffer[i] = values[i];
        release();
        heap_ = buffer;
        capacity_ = static_cast<std::uint32_t>(capacity);
    }

    /// Frees a spilled buffer; the values then count as inline.
    void
    release() noexcept
    {
        if (!is_inline()) std::allocator<T>().deallocate(heap_, capacity_);
        capacity_ = N;
    }

    /// Takes @p other's values and leaves it empty and inline; this
    /// vector must hold no heap buffer.
    void
    take(SmallVector& other) noexcept
    {
        if (other.is_inline()) {
            std::copy_n(other.inline_, other.size_, inline_);
        } else {
            heap_ = other.heap_;
            capacity_ = other.capacity_;
            other.capacity_ = N;
        }
        size_ = other.size_;
        other.size_ = 0;
    }

    // heap_ starts null so that no path, even one the capacity rules
    // out, reads it uninitialized.
    union {
        T inline_[N];
        T* heap_ = nullptr;
    };
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
};

}  // namespace caqr::util

#endif  // CAQR_UTIL_SMALL_VECTOR_H
