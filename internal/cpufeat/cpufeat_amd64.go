package cpufeat

var hasAVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 7 EBX bit 5 (AVX2), leaf 1 ECX bits 27
// (OSXSAVE) and 28 (AVX), and XCR0, whose bits 1 and 2 show that the OS
// saves the XMM and YMM state.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. It faults unless CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
