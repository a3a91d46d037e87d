// Known-answer and property tests for the crypto substrate backing the
// security manager: SHA-256 (NIST FIPS 180-4 vectors), HMAC-SHA256
// (RFC 4231), ChaCha20 and Poly1305 (RFC 8439), and the ChaCha20-Poly1305
// sealed-message format.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/cipher.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"

namespace sdvm::crypto {
namespace {

std::string sha_hex(std::string_view msg) {
  auto d = Sha256::hash(msg);
  return hex(d);
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(sha_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(sha_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(sha_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  // Splitting input at every possible boundary must not change the digest.
  std::string msg = "The SDVM distributes data and code automatically.";
  auto expect = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expect) << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(n, 'x');
    Sha256 a;
    a.update(msg);
    auto one = a.finish();
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(b.finish(), one) << "n=" << n;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  std::uint8_t key[20];
  std::memset(key, 0x0b, sizeof(key));
  std::string msg = "Hi There";
  auto mac = hmac_sha256(
      {reinterpret_cast<const std::byte*>(key), sizeof(key)},
      {reinterpret_cast<const std::byte*>(msg.data()), msg.size()});
  EXPECT_EQ(hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  std::string key = "Jefe";
  std::string msg = "what do ya want for nothing?";
  auto mac = hmac_sha256(
      {reinterpret_cast<const std::byte*>(key.data()), key.size()},
      {reinterpret_cast<const std::byte*>(msg.data()), msg.size()});
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::uint8_t key[131];
  std::memset(key, 0xaa, sizeof(key));
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  auto mac = hmac_sha256(
      {reinterpret_cast<const std::byte*>(key), sizeof(key)},
      {reinterpret_cast<const std::byte*>(msg.data()), msg.size()});
  EXPECT_EQ(hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  ChaCha20::Key key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  ChaCha20::Nonce nonce = {0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  auto ks = ChaCha20::block(key, nonce, 1);
  EXPECT_EQ(hex(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  ChaCha20::Key key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  ChaCha20::Nonce nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plain =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::byte> buf(plain.size());
  std::memcpy(buf.data(), plain.data(), plain.size());
  ChaCha20::apply(key, nonce, 1, buf);
  std::string got = hex(std::span{
      reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size()});
  EXPECT_EQ(got.substr(0, 64),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20Test, ApplyIsAnInvolution) {
  ChaCha20::Key key{};
  key[0] = 1;
  ChaCha20::Nonce nonce{};
  nonce[5] = 7;
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte{static_cast<unsigned char>(i * 31)};
  }
  auto original = data;
  ChaCha20::apply(key, nonce, 0, data);
  EXPECT_NE(data, original);
  ChaCha20::apply(key, nonce, 0, data);
  EXPECT_EQ(data, original);
}

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::vector<std::byte> from_hex(std::string_view h) {
  std::vector<std::byte> out(h.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(
        std::stoul(std::string(h.substr(2 * i, 2)), nullptr, 16));
  }
  return out;
}

/// The key and message pattern of the offline Poly1305 vectors below.
Poly1305::Key pattern_key() {
  Poly1305::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return key;
}

std::vector<std::byte> pattern_message(std::size_t n) {
  std::vector<std::byte> msg(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg[i] = std::byte{static_cast<unsigned char>(i * 13)};
  }
  return msg;
}

template <typename Array>
Array array_from_hex(std::string_view h) {
  const auto v = from_hex(h);
  Array a;
  std::memcpy(a.data(), v.data(), a.size());
  return a;
}

std::string hex_of(std::span<const std::byte> b) {
  return hex({reinterpret_cast<const std::uint8_t*>(b.data()), b.size()});
}

TEST(Poly1305Test, Rfc8439Section252) {
  const auto key = array_from_hex<Poly1305::Key>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  EXPECT_EQ(
      hex(Poly1305::mac(key, bytes_of("Cryptographic Forum Research Group"))),
      "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, BlockEdgeLengths) {
  // Tags for message lengths around the 16-byte block edge, generated
  // offline with Python `cryptography`'s Poly1305.
  const Poly1305::Key key = pattern_key();
  const std::pair<std::size_t, std::string_view> cases[] = {
      {0, "737a81888f969da4abb2b9c0c7ced5dc"},
      {1, "827d8b9997b2c3d1afeafb09c8223442"},
      {15, "997f860909d2b3b4f29c54ce45cc2cc5"},
      {16, "1cf03fa14506e1c9f294f56009886926"},
      {17, "34b94c768ff3e56cc851b4cfd71c6e6c"},
      {31, "2520fd860e79235cf98446d6ea25103f"},
      {32, "4b92d28c5c1856507451d6b8921f650d"},
      {33, "bff2d43e4fa5c4c01c827515c3519641"},
      {100, "1f27abc080604043be1ecb12b7bd68aa"},
  };
  for (const auto& [n, tag] : cases) {
    EXPECT_EQ(hex(Poly1305::mac(key, pattern_message(n))), tag)
        << "length " << n;
  }
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  const Poly1305::Key key = pattern_key();
  const auto msg = pattern_message(100);
  const auto expect = Poly1305::mac(key, msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Poly1305 p(key);
    p.update(std::span(msg).subspan(0, split));
    p.update(std::span(msg).subspan(split));
    EXPECT_EQ(p.finish(), expect) << "split at " << split;
  }
}

TEST(Poly1305Test, AccumulatorReducedModP) {
  // r = 0 makes the accumulator 0, so the tag is exactly s; an all-ones r
  // with all-ones blocks drives h to its largest limbs before the final
  // reduction. Both values were cross-checked with Python `cryptography`.
  Poly1305::Key key{};
  for (std::size_t i = 16; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::vector<std::byte> ones(64, std::byte{0xff});
  EXPECT_EQ(hex(Poly1305::mac(key, ones)), "101112131415161718191a1b1c1d1e1f");
  key.fill(0xff);
  EXPECT_EQ(hex(Poly1305::mac(key, ones)), "900fe32bc15fa8d7bca8efe4c7e37eb1");
}

/// RFC 8439 §2.8.2 inputs. The expected ciphertext and tag were reproduced
/// with Python `cryptography`'s ChaCha20Poly1305.
constexpr std::string_view kSunscreen =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one "
    "tip for the future, sunscreen would be it.";

TEST(AeadTest, Rfc8439Section282) {
  ChaCha20::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  const auto nonce =
      array_from_hex<ChaCha20::Nonce>("070000004041424344454647");
  const auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const auto sealed = seal(key, nonce, aad, bytes_of(kSunscreen));
  EXPECT_EQ(hex_of(sealed),
            "070000004041424344454647"
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), bytes_of(kSunscreen));
}

/// A frame shaped like the security manager's: the 10-byte wire header
/// (version 2, sealed, 1 -> 2) as AAD and a salt || count nonce. Expected
/// bytes generated offline with Python `cryptography`'s ChaCha20Poly1305.
TEST(AeadTest, WireHeaderAsAssociatedData) {
  ChaCha20::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const auto nonce =
      array_from_hex<ChaCha20::Nonce>("a1b2c3d40100000000000000");
  const auto aad = from_hex("02010100000002000000");
  const auto plain = bytes_of("help request: site 3 is idle, send a frame");
  const auto sealed = seal(key, nonce, aad, plain);
  EXPECT_EQ(hex_of(sealed),
            "a1b2c3d40100000000000000"
            "b26562615d163638376b61c07bb5c91f56178d76e96b858c729897d7f935c451"
            "08febc8595323012f919"
            "79995eac887b6c51a8a40d90ca35b88a");
  auto opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), plain);
}

/// Seals a fixed message under a fixed key, nonce and header.
struct SealedFixture {
  ChaCha20::Key key = derive_direction_key(derive_master_key("pw"), 5, 6);
  ChaCha20::Nonce nonce =
      array_from_hex<ChaCha20::Nonce>("000000000000000000000001");
  std::vector<std::byte> aad = from_hex("02010500000006000000");
  std::vector<std::byte> sealed =
      seal(key, nonce, aad, std::vector<std::byte>(64, std::byte{0x5a}));
};

TEST(AeadTest, TamperedRegionRejected) {
  const SealedFixture f;
  ASSERT_TRUE(open(f.key, f.aad, f.sealed).is_ok());
  // One flipped bit in the nonce, the ciphertext's first and last byte,
  // and the tag's first and last byte.
  for (std::size_t at : {std::size_t{0}, std::size_t{11}, std::size_t{12},
                         f.sealed.size() - 17, f.sealed.size() - 16,
                         f.sealed.size() - 1}) {
    auto bad = f.sealed;
    bad[at] ^= std::byte{0x01};
    EXPECT_FALSE(open(f.key, f.aad, bad).is_ok()) << "byte " << at;
  }
}

TEST(AeadTest, TamperedAssociatedDataRejected) {
  const SealedFixture f;
  for (std::size_t at = 0; at < f.aad.size(); ++at) {
    auto bad = f.aad;
    bad[at] ^= std::byte{0x80};
    EXPECT_FALSE(open(f.key, bad, f.sealed).is_ok()) << "aad byte " << at;
  }
  EXPECT_FALSE(open(f.key, {}, f.sealed).is_ok());
}

TEST(AeadTest, TruncationRejected) {
  const SealedFixture f;
  for (std::size_t n : {std::size_t{0}, kSealOverhead - 1, kSealOverhead,
                        f.sealed.size() - 1}) {
    EXPECT_FALSE(
        open(f.key, f.aad, std::span(f.sealed).subspan(0, n)).is_ok())
        << "kept " << n << " bytes";
  }
}

TEST(AeadTest, EmptyBodyIsAuthenticated) {
  const SealedFixture f;
  const auto sealed = seal(f.key, f.nonce, f.aad, {});
  ASSERT_EQ(sealed.size(), kSealOverhead);
  auto opened = open(f.key, f.aad, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_TRUE(opened.value().empty());
  auto bad = sealed;
  bad.back() ^= std::byte{0x01};
  EXPECT_FALSE(open(f.key, f.aad, bad).is_ok());
  auto bad_aad = f.aad;
  bad_aad[2] ^= std::byte{0x01};
  EXPECT_FALSE(open(f.key, bad_aad, sealed).is_ok());
}

TEST(CipherTest, SealOpenRoundTrip) {
  auto master = derive_master_key("cluster-password");
  auto key = derive_direction_key(master, 1, 2);
  auto plain = bytes_of("help request: site 3 is idle");
  const ChaCha20::Nonce nonce{42};
  auto sealed = seal(key, nonce, {}, plain);
  auto opened = open(key, {}, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), plain);
}

TEST(CipherTest, DirectionKeysDiffer) {
  auto master = derive_master_key("pw");
  const auto k12 = derive_direction_key(master, 1, 2);
  EXPECT_NE(k12, derive_direction_key(master, 2, 1));
  EXPECT_NE(k12, derive_direction_key(master, 1, 3));
  EXPECT_EQ(k12, derive_direction_key(master, 1, 2));
}

TEST(CipherTest, DifferentPasswordsDifferentKeys) {
  EXPECT_NE(derive_master_key("alpha"), derive_master_key("beta"));
}

TEST(CipherTest, TamperedCiphertextRejected) {
  auto key = derive_direction_key(derive_master_key("pw"), 5, 6);
  std::vector<std::byte> plain(64, std::byte{0x5a});
  auto sealed = seal(key, ChaCha20::Nonce{1}, {}, plain);
  sealed[sealed.size() / 2] ^= std::byte{1};
  EXPECT_FALSE(open(key, {}, sealed).is_ok());
}

TEST(CipherTest, WrongKeyRejected) {
  auto master = derive_master_key("pw");
  auto k12 = derive_direction_key(master, 1, 2);
  auto k21 = derive_direction_key(master, 2, 1);
  auto k13 = derive_direction_key(master, 1, 3);
  std::vector<std::byte> plain(16, std::byte{7});
  auto sealed = seal(k12, ChaCha20::Nonce{1}, {}, plain);
  EXPECT_FALSE(open(k13, {}, sealed).is_ok());
  EXPECT_FALSE(open(k21, {}, sealed).is_ok());
}

TEST(CipherTest, TruncatedBlobRejected) {
  auto key = derive_direction_key(derive_master_key("pw"), 1, 2);
  EXPECT_FALSE(open(key, {}, std::vector<std::byte>(10)).is_ok());
}

TEST(CipherTest, EmptyPayloadRoundTrip) {
  auto key = derive_direction_key(derive_master_key("pw"), 1, 2);
  auto sealed = seal(key, ChaCha20::Nonce{9}, {}, {});
  auto opened = open(key, {}, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_TRUE(opened.value().empty());
}

// Property sweep: random payload sizes survive the round trip.
class CipherPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CipherPropertyTest, RandomPayloadRoundTrip) {
  Xoshiro256 rng(GetParam());
  auto key = derive_direction_key(derive_master_key("prop"), 10, 20);
  std::size_t n = GetParam();
  std::vector<std::byte> plain(n);
  for (auto& b : plain) b = std::byte{static_cast<unsigned char>(rng())};
  const auto aad = from_hex("02010a00000014000000");
  const ChaCha20::Nonce nonce{static_cast<std::uint8_t>(n)};
  auto sealed = seal(key, nonce, aad, plain);
  EXPECT_EQ(sealed.size(), plain.size() + kSealOverhead);  // nonce + tag
  auto opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CipherPropertyTest,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 1000,
                                           4096, 100000));

}  // namespace
}  // namespace sdvm::crypto
