% Image filtering (the MatlabMPI benchmark family): cross-stencil blur,
% unsharp mask, and gradient-magnitude edge blend over an n x n image.
n = 256;
steps = 16;
rand('seed', 42);
img = rand(n, n);
tau = 0.08;
sh_n = [-1, 0]; sh_s = [1, 0]; sh_w = [0, -1]; sh_e = [0, 1];
for s = 1:steps
    north = circshift(img, sh_n);
    south = circshift(img, sh_s);
    west = circshift(img, sh_w);
    east = circshift(img, sh_e);
    blur = (north + south + west + east) ./ 8 + img ./ 2;
    sharp = img + 1.5 .* (img - blur);
    tone = blur .* blur .* (3 - 2 .* blur);
    gv = (south - north) ./ 2;
    gh = (east - west) ./ 2;
    mag = sqrt(gv .* gv + gh .* gh);
    edges = mag > tau;
    out = edges .* sharp + (1 - edges) .* tone;
    img = max(min(out, 1), 0);
end
total = sum(sum(img));
fprintf('imgfilter: n=%d steps=%d checksum=%.9f\n', n, steps, total);
