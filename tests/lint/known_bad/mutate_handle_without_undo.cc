// expect: mutate-undo
// The handle-based apply is the same mutation as applySwitchUpdate: a
// record filled into a local that nobody undoes leaves the shard's
// structure mutated for every sibling branch explored afterwards.
namespace netupd {
struct Record {
  unsigned Sw = 0;
};
struct Kripke {
  void applyHandle(const void *Table, Record &Undo);
  void undo(const Record &Undo);
};

bool probeOnly(Kripke &K, const void *Table) {
  Record Rec;
  K.applyHandle(Table, Rec);
  return Rec.Sw != 0;
}
} // namespace netupd
