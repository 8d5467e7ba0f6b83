package evalcache

// segMagic opens every segment frame (internal/checkpoint's frame
// codec). The trailing space doubles as the field separator of the
// header line.
const segMagic = "casrec "
