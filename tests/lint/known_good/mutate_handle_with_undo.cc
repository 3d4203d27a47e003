// Clean: the handle-based apply in both sanctioned shapes — an undo()
// call in the same scope, and a record owned by the DFS frame.
namespace netupd {
struct Record {
  unsigned Sw = 0;
};
struct Kripke {
  void applyHandle(const void *Table, Record &Undo);
  void undo(const Record &Undo);
};

bool probeAndRestore(Kripke &K, const void *Table) {
  Record Rec;
  K.applyHandle(Table, Rec);
  bool Ok = Rec.Sw != 0;
  K.undo(Rec);
  return Ok;
}

struct DfsFrame {
  Record Undo;
};

void descend(Kripke &K, DfsFrame &F, const void *Table) {
  K.applyHandle(Table, F.Undo);
}
} // namespace netupd
