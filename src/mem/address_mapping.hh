/**
 * @file
 * Physical-address-to-DRAM-coordinate mapping schemes.
 *
 * Scheme names list fields from most-significant to least-significant
 * address bits, after removing the block offset: e.g. RoRaBaCoCh puts
 * the channel-select bits at the lowest position (consecutive cache
 * blocks alternate between channels) and the row bits at the top.
 * These are the four schemes the paper studies (Section 4.3).
 */

#ifndef CLOUDMC_MEM_ADDRESS_MAPPING_HH
#define CLOUDMC_MEM_ADDRESS_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "dram/dram_params.hh"

namespace mcsim {

/**
 * The address interleaving schemes studied in the paper, plus two
 * permutation-based (XOR) extensions. The paper's Section 5 lists
 * permutation-based interleaving as unexplored future work; the XOR
 * schemes fold low row bits into the bank (and channel) index the way
 * Zhang et al.'s permutation-based page interleaving does, spreading
 * row-conflicting streams over banks without hurting row locality.
 */
enum class MappingScheme : std::uint8_t {
    RoRaBaCoCh, ///< Baseline: block interleave across channels.
    RoRaBaChCo, ///< Row-buffer-sized stripes per channel.
    RoRaChBaCo, ///< Channel above bank bits.
    RoChRaBaCo, ///< Channel just below row bits.
    PermBaXor,  ///< Extension: RoRaBaChCo with bank ^= low row bits.
    PermChBaXor, ///< Extension: RoRaChBaCo with ch and bank XOR-permuted.
};

/** The four schemes the paper's Section 4.3 studies, for sweeps. */
constexpr std::array<MappingScheme, 4> kAllMappingSchemes = {
    MappingScheme::RoRaBaCoCh, MappingScheme::RoRaBaChCo,
    MappingScheme::RoRaChBaCo, MappingScheme::RoChRaBaCo};

/** Every scheme including the XOR extensions (ablation sweeps). */
constexpr std::array<MappingScheme, 6> kExtendedMappingSchemes = {
    MappingScheme::RoRaBaCoCh, MappingScheme::RoRaBaChCo,
    MappingScheme::RoRaChBaCo, MappingScheme::RoChRaBaCo,
    MappingScheme::PermBaXor,  MappingScheme::PermChBaXor};

const char *mappingSchemeName(MappingScheme s);

/** Parse a scheme name (any of kExtendedMappingSchemes); false on
 *  unknown names. */
bool tryMappingSchemeFromName(const std::string &name, MappingScheme &out);

/**
 * How the bank-group bits of a grouped device (DDR4/DDR5) are placed
 * in the address. GroupInterleaved pulls the group-select bits down to
 * the lowest mapped position (above a block-granular channel field),
 * so consecutive cache blocks rotate across bank groups and streaming
 * CAS trains pay tCCD_S; GroupPacked keeps the whole bank field
 * contiguous where the scheme puts it, so a stream stays inside one
 * bank group and the tCCD_L/tRRD_L/tWTR_L timings bind. Irrelevant
 * (identical layouts) when bankGroupsPerRank == 1.
 */
enum class BankGroupMapping : std::uint8_t {
    GroupInterleaved, ///< Group bits at the lowest mapped position.
    GroupPacked,      ///< Bank field contiguous (group = high bank bits).
};

/** Both options, for sweeps. */
constexpr std::array<BankGroupMapping, 2> kAllBankGroupMappings = {
    BankGroupMapping::GroupInterleaved, BankGroupMapping::GroupPacked};

const char *bankGroupMappingName(BankGroupMapping m);

/** Parse a group-mapping name ("GroupInterleaved"/"GroupPacked", or
 *  the short forms "interleaved"/"packed"); false on unknown names. */
bool tryBankGroupMappingFromName(const std::string &name,
                                 BankGroupMapping &out);

/**
 * Bidirectional mapper between physical block addresses and DRAM
 * coordinates for a given geometry and scheme.
 */
class AddressMapper
{
  public:
    AddressMapper(const DramGeometry &geom, MappingScheme scheme,
                  BankGroupMapping groupMapping =
                      BankGroupMapping::GroupInterleaved);

    /** Decode a byte address (block-aligned or not) to coordinates. */
    DramCoord decode(Addr addr) const;

    /** Inverse of decode(); returns the block-aligned byte address. */
    Addr encode(const DramCoord &coord) const;

    MappingScheme scheme() const { return scheme_; }
    BankGroupMapping groupMapping() const { return groupMapping_; }
    const DramGeometry &geometry() const { return geom_; }

    /** Number of address bits consumed above the block offset. */
    unsigned mappedBits() const;

  private:
    /** One field's position in the block-granular address. */
    struct Field
    {
        unsigned lsb = 0;
        unsigned width = 0;
    };

    DramGeometry geom_;
    MappingScheme scheme_;
    BankGroupMapping groupMapping_;
    Field chField_, raField_, baField_, roField_, coField_;
    /** Group-select bits when split out (GroupInterleaved on a
     *  grouped device); width 0 otherwise. */
    Field bgField_;
    unsigned blockShift_;
    unsigned bankBits_ = 0;   ///< log2(banksPerRank), bg + ba widths.
    bool xorBank_ = false;    ///< bank ^= row[0 .. bankBits_)
    bool xorChannel_ = false; ///< channel ^= row[bankBits_ .. +chW)
};

} // namespace mcsim

#endif // CLOUDMC_MEM_ADDRESS_MAPPING_HH
