#include "address_mapping.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace mcsim {

const char *
mappingSchemeName(MappingScheme s)
{
    switch (s) {
      case MappingScheme::RoRaBaCoCh: return "RoRaBaCoCh";
      case MappingScheme::RoRaBaChCo: return "RoRaBaChCo";
      case MappingScheme::RoRaChBaCo: return "RoRaChBaCo";
      case MappingScheme::RoChRaBaCo: return "RoChRaBaCo";
      case MappingScheme::PermBaXor: return "PermBaXor";
      case MappingScheme::PermChBaXor: return "PermChBaXor";
    }
    return "???";
}

bool
tryMappingSchemeFromName(const std::string &name, MappingScheme &out)
{
    for (auto s : kExtendedMappingSchemes) {
        if (name == mappingSchemeName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
bankGroupMappingName(BankGroupMapping m)
{
    switch (m) {
      case BankGroupMapping::GroupInterleaved: return "GroupInterleaved";
      case BankGroupMapping::GroupPacked: return "GroupPacked";
    }
    return "???";
}

bool
tryBankGroupMappingFromName(const std::string &name, BankGroupMapping &out)
{
    for (auto m : kAllBankGroupMappings) {
        if (name == bankGroupMappingName(m)) {
            out = m;
            return true;
        }
    }
    if (name == "interleaved") {
        out = BankGroupMapping::GroupInterleaved;
        return true;
    }
    if (name == "packed") {
        out = BankGroupMapping::GroupPacked;
        return true;
    }
    return false;
}

AddressMapper::AddressMapper(const DramGeometry &geom, MappingScheme scheme,
                             BankGroupMapping groupMapping)
    : geom_(geom), scheme_(scheme), groupMapping_(groupMapping)
{
    geom_.validate();
    blockShift_ = floorLog2(geom_.blockBytes);

    const unsigned chW = floorLog2(geom_.channels);
    const unsigned raW = floorLog2(geom_.ranksPerChannel);
    const unsigned baW = floorLog2(geom_.banksPerRank);
    const unsigned coW = floorLog2(geom_.blocksPerRow());
    const unsigned roW = floorLog2(geom_.rowsPerBank);
    // GroupInterleaved splits the group-select bits out of the bank
    // field and sinks them to the lowest mapped position.
    const unsigned bgW =
        groupMapping_ == BankGroupMapping::GroupInterleaved
            ? floorLog2(geom_.bankGroupsPerRank)
            : 0;
    bankBits_ = baW;

    // Scheme names are MSB-first; lay fields out LSB-first (reversed).
    struct Item
    {
        Field *field;
        unsigned width;
    };
    std::array<Item, 6> order{};
    std::size_t n = 0;
    Field *ch = &chField_, *ra = &raField_, *ba = &baField_,
          *ro = &roField_, *co = &coField_, *bg = &bgField_;
    const auto layout = [&](std::array<Item, 5> items) {
        // The group bits go below everything except a block-granular
        // channel interleave (RoRaBaCoCh keeps the channel lowest).
        if (bgW && items[0].field == ch)
            order[n++] = items[0];
        if (bgW)
            order[n++] = {bg, bgW};
        for (auto &item : items) {
            if (bgW && item.field == ch && &item == &items[0])
                continue;
            order[n++] = item;
        }
    };
    switch (scheme_) {
      case MappingScheme::RoRaBaCoCh:
        layout({{{ch, chW}, {co, coW}, {ba, baW - bgW}, {ra, raW},
                 {ro, roW}}});
        break;
      case MappingScheme::RoRaBaChCo:
        layout({{{co, coW}, {ch, chW}, {ba, baW - bgW}, {ra, raW},
                 {ro, roW}}});
        break;
      case MappingScheme::RoRaChBaCo:
        layout({{{co, coW}, {ba, baW - bgW}, {ch, chW}, {ra, raW},
                 {ro, roW}}});
        break;
      case MappingScheme::RoChRaBaCo:
        layout({{{co, coW}, {ba, baW - bgW}, {ra, raW}, {ch, chW},
                 {ro, roW}}});
        break;
      case MappingScheme::PermBaXor:
        layout({{{co, coW}, {ch, chW}, {ba, baW - bgW}, {ra, raW},
                 {ro, roW}}});
        xorBank_ = true;
        break;
      case MappingScheme::PermChBaXor:
        layout({{{co, coW}, {ba, baW - bgW}, {ch, chW}, {ra, raW},
                 {ro, roW}}});
        xorBank_ = true;
        xorChannel_ = true;
        break;
    }
    unsigned lsb = 0;
    for (std::size_t i = 0; i < n; ++i) {
        order[i].field->lsb = lsb;
        order[i].field->width = order[i].width;
        lsb += order[i].width;
    }
}

unsigned
AddressMapper::mappedBits() const
{
    return chField_.width + raField_.width + baField_.width +
           bgField_.width + roField_.width + coField_.width;
}

DramCoord
AddressMapper::decode(Addr addr) const
{
    const Addr blk = addr >> blockShift_;
    DramCoord c;
    c.channel = static_cast<std::uint32_t>(
        extractBits(blk, chField_.lsb, chField_.width));
    c.rank = static_cast<std::uint32_t>(
        extractBits(blk, raField_.lsb, raField_.width));
    c.bank = static_cast<std::uint32_t>(
        extractBits(blk, baField_.lsb, baField_.width));
    if (bgField_.width) {
        // Physical convention: the high bank bits select the group.
        const auto group = static_cast<std::uint32_t>(
            extractBits(blk, bgField_.lsb, bgField_.width));
        c.bank |= group << (bankBits_ - bgField_.width);
    }
    c.row = extractBits(blk, roField_.lsb, roField_.width);
    c.column = static_cast<std::uint32_t>(
        extractBits(blk, coField_.lsb, coField_.width));
    // XOR permutation: the stored bank/channel bits are the logical
    // index XORed with (disjoint slices of) the row; XOR again to
    // recover. Involutive, so encode() applies the same operation.
    if (xorBank_ && bankBits_) {
        c.bank ^= static_cast<std::uint32_t>(c.row) &
                  ((1u << bankBits_) - 1);
    }
    if (xorChannel_ && chField_.width) {
        c.channel ^= static_cast<std::uint32_t>(c.row >> bankBits_) &
                     ((1u << chField_.width) - 1);
    }
    return c;
}

Addr
AddressMapper::encode(const DramCoord &coord) const
{
    std::uint32_t bank = coord.bank;
    std::uint32_t channel = coord.channel;
    if (xorBank_ && bankBits_) {
        bank ^= static_cast<std::uint32_t>(coord.row) &
                ((1u << bankBits_) - 1);
    }
    if (xorChannel_ && chField_.width) {
        channel ^=
            static_cast<std::uint32_t>(coord.row >> bankBits_) &
            ((1u << chField_.width) - 1);
    }
    Addr blk = 0;
    blk = insertBits(blk, chField_.lsb, chField_.width, channel);
    blk = insertBits(blk, raField_.lsb, raField_.width, coord.rank);
    if (bgField_.width) {
        blk = insertBits(blk, bgField_.lsb, bgField_.width,
                         bank >> (bankBits_ - bgField_.width));
        blk = insertBits(blk, baField_.lsb, baField_.width,
                         bank & ((1u << baField_.width) - 1));
    } else {
        blk = insertBits(blk, baField_.lsb, baField_.width, bank);
    }
    blk = insertBits(blk, roField_.lsb, roField_.width, coord.row);
    blk = insertBits(blk, coField_.lsb, coField_.width, coord.column);
    return blk << blockShift_;
}

} // namespace mcsim
